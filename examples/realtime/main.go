// Realtime: soft real time for closed-loop serving — the paper's §VII
// question ("can Compass keep up with a 1 ms biological tick?") asked of
// the interactive path instead of the batch path.
//
// The program boots an in-process compassd, then drives every registered
// scenario through the shared episode engine (internal/scenario): each
// decision window is encoded to spikes, streamed over the CSTR plane,
// stepped, and decoded back into an action. TrueNorth's native tick is
// 1 ms, so a closed loop is soft real time when one decision window of W
// ticks round-trips in under W milliseconds. The engine's client-side
// RTT samples make that budget directly checkable.
//
// This used to be a hand-rolled CSTR loop; it is now a thin client of
// the scenario engine, and doubles as a runnable smoke target for the
// whole interactive serving path.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"github.com/cognitive-sim/compass/internal/scenario"
	"github.com/cognitive-sim/compass/internal/server"
)

// tickBudget is TrueNorth's biological tick: 1 ms of wall clock per
// simulated tick is the paper's soft real-time bar.
const tickBudget = time.Millisecond

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	srv := server.New(server.Options{
		HTTPAddr:   "127.0.0.1:0",
		StreamAddr: "127.0.0.1:0",
		NodeID:     "realtime-example",
		Manager: server.ManagerOptions{
			CapacitySecondsPerTick: 1e9,
			MaxRunning:             8,
		},
	})
	if err := srv.Start(); err != nil {
		return err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()

	c, err := server.Dial(srv.HTTPAddr())
	if err != nil {
		return err
	}
	fmt.Printf("compassd up at %s; driving %d scenarios closed-loop (budget: %v/tick)\n\n",
		srv.HTTPAddr(), len(scenario.Names()), tickBudget)

	allRT := true
	for _, name := range scenario.Names() {
		spec, err := scenario.Get(name)
		if err != nil {
			return err
		}
		res, err := scenario.Run(c, spec, scenario.RunOptions{
			Episodes: 2,
			Seed:     2026,
			Report:   true,
		})
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		budget := time.Duration(spec.WindowTicks) * tickBudget
		p50 := time.Duration(res.RTTPercentile(0.50) * float64(time.Second))
		p99 := time.Duration(res.RTTPercentile(0.99) * float64(time.Second))
		epsPerSec := float64(res.Episodes) / res.ElapsedSeconds
		rt := p99 <= budget
		verdict := "soft real time"
		if !rt {
			verdict = "OVER BUDGET"
			allRT = false
		}
		fmt.Printf("%-8s %2d episodes x %2d steps: %5.1f ep/s, reward %5.1f, %d/%d correct\n",
			name, res.Episodes, res.Steps, epsPerSec, res.Score.Reward,
			res.Score.Correct, res.Score.Steps)
		fmt.Printf("         window %2d ticks (budget %4v): RTT p50 %8v  p99 %8v  -> %s\n",
			spec.WindowTicks, budget, p50.Round(time.Microsecond), p99.Round(time.Microsecond), verdict)
	}

	if !allRT {
		return fmt.Errorf("closed loop missed the %v/tick soft real-time budget", tickBudget)
	}
	fmt.Println("\nevery scenario's decision loop fits inside the biological tick rate.")
	return nil
}
