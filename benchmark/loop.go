package main

import (
	"bytes"
	"context"
	"encoding/base64"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"time"

	"github.com/cognitive-sim/compass/internal/compass"
	"github.com/cognitive-sim/compass/internal/coreobject"
	"github.com/cognitive-sim/compass/internal/scenario"
	"github.com/cognitive-sim/compass/internal/server"
	"github.com/cognitive-sim/compass/internal/spikecode"
	"github.com/cognitive-sim/compass/internal/spikeio"
)

// The closed-loop step stages. serve_fleet's traced run also drives the
// bandit scenario with one closed-loop client (one HTTP and one stream
// connection) against a fresh in-process daemon per cycle: thousands of
// lock-step steps on a 1-rank model, where the control plane and the
// stream plane dominate and compute is negligible. Untraced cycles call
// scenario.Run; traced cycles run the benchmark's own copy of its step
// loop with a span around every stage, and must reproduce the untraced
// inject hash and score, so both measure the same program.
const (
	loopScenario = "bandit"
	loopEpisodes = 20
	stepTimeout  = 60 * time.Second
)

// startDaemon starts an in-process daemon on loopback with defaults.
func startDaemon() (*server.Server, error) {
	srv := server.New(server.Options{HTTPAddr: "127.0.0.1:0", StreamAddr: "127.0.0.1:0"})
	if err := srv.Start(); err != nil {
		return nil, err
	}
	return srv, nil
}

func stopDaemon(srv *server.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	srv.Shutdown(ctx)
}

// plainCycle runs one untraced cycle: daemon start, client dial, and
// scenario.Run.
func plainCycle(spec *scenario.Spec, seed uint64) (*scenario.Result, error) {
	srv, err := startDaemon()
	if err != nil {
		return nil, err
	}
	defer stopDaemon(srv)
	cl, err := scenario.Dial(srv.HTTPAddr())
	if err != nil {
		return nil, err
	}
	return scenario.Run(cl, spec, scenario.RunOptions{Seed: seed, Episodes: loopEpisodes})
}

// loopRef is what every cycle of a run must reproduce.
type loopRef struct {
	hash  string
	score scenario.Score
}

// checkCycle compares a cycle's stream fingerprint and score with the
// reference and counts its steps.
func checkCycle(r *report, kind string, cycle int, steps int, hash string, score scenario.Score, ref loopRef) {
	r.attempted += steps
	if !r.check(hash == ref.hash && reflect.DeepEqual(score, ref.score), kind,
		"cycle %d: inject hash %.12s score %v, reference %.12s %v", cycle, hash, score.Reward, ref.hash, ref.score.Reward) {
		r.failed += steps - 1
	}
}

// loopReference runs the first cycle, pins its stream and score with
// scenario.Replay (an offline compass.Run of the recorded stream), and
// returns it as the run's reference.
func loopReference(c *runCtx, spec *scenario.Spec) (loopRef, error) {
	res, err := plainCycle(spec, c.seed)
	if err != nil {
		return loopRef{}, err
	}
	steps := res.Episodes * res.Steps
	c.rep.attempted += steps
	if !c.rep.check(scenario.Replay(spec, res, compass.Config{}) == nil, "scenario.Replay of cycle 0", "offline replay disagrees with the live run") {
		c.rep.failed += steps - 1
	}
	return loopRef{hash: res.InjectHash, score: res.Score}, nil
}

// loopSession is an admitted scenario session with its stream open and
// its egress drained into batches by a reader goroutine.
type loopSession struct {
	srv     *server.Server
	cl      *scenario.Client
	id      string
	task    scenario.Task
	wiring  *scenario.Wiring
	stream  *server.StreamClient
	batches chan []spikeio.Event
	readErr chan error
}

// openLoop starts a daemon and admits the scenario's session exactly as
// scenario.Run does: paused, 1 rank, chunked at the decision window.
func openLoop(spec *scenario.Spec, seed uint64, rec *recorder, root, run int) (*loopSession, error) {
	id := rec.begin("server.start", root, run, 0)
	srv, err := startDaemon()
	rec.end(id)
	if err != nil {
		return nil, err
	}
	s := &loopSession{srv: srv}
	fail := func(err error) (*loopSession, error) {
		s.close()
		return nil, err
	}
	if s.cl, err = scenario.Dial(srv.HTTPAddr()); err != nil {
		return fail(err)
	}
	if s.task, err = spec.New(seed); err != nil {
		return fail(err)
	}
	s.wiring = s.task.Wiring()
	var model bytes.Buffer
	if err := coreobject.WriteModel(&model, s.wiring.Model); err != nil {
		return fail(err)
	}
	total := uint64(loopEpisodes) * uint64(spec.Steps) * spec.WindowTicks
	id = rec.begin("server.create", root, run, 0)
	s.id, _, err = s.cl.Create(&server.CreateRequest{
		Name:        "scenario-" + spec.Name,
		Source:      server.SourceSpec{Kind: "model", ModelBase64: base64.StdEncoding.EncodeToString(model.Bytes())},
		Ranks:       1,
		Ticks:       total,
		ChunkTicks:  int(spec.WindowTicks),
		StartPaused: true,
		Scenario:    spec.Name,
	})
	rec.end(id)
	if err != nil {
		return fail(err)
	}
	if s.stream, err = s.cl.DialStream(s.id, server.StreamFlagInject|server.StreamFlagSubscribe); err != nil {
		return fail(err)
	}
	// 64 frames of slack keeps the reader ahead of a slow decode; the
	// step loop drains it every step.
	s.batches = make(chan []spikeio.Event, 64)
	s.readErr = make(chan error, 1)
	go func() {
		defer close(s.batches)
		for {
			evs, err := s.stream.Recv()
			if err != nil {
				if err != io.EOF {
					s.readErr <- err
				}
				return
			}
			s.batches <- evs
		}
	}()
	return s, nil
}

// close removes the session, closes the stream, waits for the reader
// goroutine to end, and stops the daemon.
func (s *loopSession) close() {
	if s.id != "" {
		s.cl.Remove(s.id)
	}
	if s.stream != nil {
		s.stream.Close()
		for range s.batches {
		}
	}
	stopDaemon(s.srv)
}

// tracedOut is one traced cycle's outcome.
type tracedOut struct {
	hash  string
	score scenario.Score
	steps int
	prom  promSet
}

// tracedCycle is scenario.Run's step loop with a span around every
// stage of every step: encode (Task.Emit), stream send, the HTTP step
// (inject barrier, ingest, batch window, sweep), the wait from the step
// returning until the window's sentinel tick arrives, and decode.
func tracedCycle(spec *scenario.Spec, seed uint64, rec *recorder, run int) (*tracedOut, error) {
	root := rec.begin("bench.cycle", 0, run, 0)
	defer rec.end(root)
	s, err := openLoop(spec, seed, rec, root, run)
	if err != nil {
		return nil, err
	}
	defer s.close()
	out := &tracedOut{}
	var injected, egress []spikeio.Event
	cursor := uint64(0)
	for ep := 0; ep < loopEpisodes; ep++ {
		s.task.Reset(ep)
		for st := 0; st < spec.Steps; st++ {
			step := rec.begin("scenario.step", root, run, 0)
			start := cursor
			id := rec.begin("scenario.encode", step, run, 0)
			events, err := s.task.Emit(st, start)
			rec.end(id)
			if err != nil {
				return nil, fmt.Errorf("episode %d step %d: %w", ep, st, err)
			}
			if len(events) > 0 {
				id = rec.begin("server.stream_send", step, run, 0)
				err := s.stream.Send(events)
				rec.end(id)
				if err != nil {
					return nil, fmt.Errorf("inject: %w", err)
				}
				injected = append(injected, events...)
			}
			id = rec.begin("server.step_http", step, run, 0)
			_, err = s.cl.Step(s.id, spec.WindowTicks, uint64(len(injected)))
			rec.end(id)
			if err != nil {
				return nil, fmt.Errorf("step: %w", err)
			}
			sentinel := spec.DecideEnd(start)
			id = rec.begin("server.egress_wait", step, run, 0)
			egress, err = drainUntil(s.batches, s.readErr, egress, sentinel)
			rec.end(id)
			if err != nil {
				return nil, fmt.Errorf("episode %d step %d: %w", ep, st, err)
			}
			id = rec.begin("spikecode.decode", step, run, 0)
			lines := spikecode.MapEvents(nil, egress, s.wiring.OutIndex)
			d := s.wiring.Decoder.Decode(lines, s.wiring.NumOut, start, sentinel)
			rec.end(id)
			if d.Action >= 0 {
				d.FirstTick -= start
			}
			s.task.Feedback(st, d)
			egress = trimBelow(egress, start+spec.WindowTicks)
			cursor += spec.WindowTicks
			rec.end(step)
			out.steps++
		}
	}
	out.score = s.task.Score()
	out.hash = scenario.HashEvents(injected)
	hc := &http.Client{Timeout: 30 * time.Second}
	defer hc.CloseIdleConnections()
	if out.prom, err = scrape(hc, s.srv.HTTPAddr()); err != nil {
		return nil, err
	}
	return out, nil
}

// drainUntil appends egress batches until a record at or past the
// sentinel tick arrives; with one rank, egress is in tick order, so
// every earlier tick is then complete.
func drainUntil(batches <-chan []spikeio.Event, readErr <-chan error, buf []spikeio.Event, sentinel uint64) ([]spikeio.Event, error) {
	for _, ev := range buf {
		if ev.Tick >= sentinel {
			return buf, nil
		}
	}
	deadline := time.NewTimer(stepTimeout)
	defer deadline.Stop()
	for {
		select {
		case evs, ok := <-batches:
			if !ok {
				select {
				case err := <-readErr:
					return buf, fmt.Errorf("egress stream failed: %w", err)
				default:
					return buf, fmt.Errorf("egress stream closed before tick %d", sentinel)
				}
			}
			buf = append(buf, evs...)
			for _, ev := range evs {
				if ev.Tick >= sentinel {
					return buf, nil
				}
			}
		case <-deadline.C:
			return buf, fmt.Errorf("no egress tick %d within %v", sentinel, stepTimeout)
		}
	}
}

// trimBelow drops records before floor, keeping order.
func trimBelow(events []spikeio.Event, floor uint64) []spikeio.Event {
	out := events[:0]
	for _, ev := range events {
		if ev.Tick >= floor {
			out = append(out, ev)
		}
	}
	return out
}

// measureLoopLayers runs the scenario reference cycle, then untraced
// (scenario.Run) and traced cycles alternately for budget. It reports
// the step stages from the traced cycles' spans, the step round trip of
// the untraced cycles, and the stream figures of /metrics.
func measureLoopLayers(c *runCtx, budget time.Duration) error {
	spec, err := scenario.Get(loopScenario)
	if err != nil {
		return err
	}
	ref, err := loopReference(c, spec)
	if err != nil {
		return err
	}
	var rtts []float64
	var cycles []map[string]float64
	err = loop(budget, 4, func(i int) error {
		if i%2 == 0 {
			res, err := plainCycle(spec, c.seed)
			if err != nil {
				return err
			}
			checkCycle(c.rep, "scenario.Run cycle vs cycle 0", i+1, res.Episodes*res.Steps, res.InjectHash, res.Score, ref)
			rtts = append(rtts, res.StepRTTs...)
			return nil
		}
		tc, err := tracedCycle(spec, c.seed, c.rec, i+1)
		if err != nil {
			return err
		}
		checkCycle(c.rep, "traced step loop vs scenario.Run", i+1, tc.steps, tc.hash, tc.score, ref)
		l := map[string]float64{}
		daemonLayer(tc.prom, l)
		cycles = append(cycles, l)
		return nil
	})
	if err != nil {
		return err
	}
	spans := c.rec.snapshot()
	for _, st := range []struct{ span, metric string }{
		{"scenario.encode", "scenario.encode_us"},
		{"server.stream_send", "server.stream_send_us"},
		{"server.step_http", "server.step_http_us"},
		{"server.egress_wait", "server.egress_wait_us"},
		{"spikecode.decode", "spikecode.decode_us"},
	} {
		setStagePercentiles(c.rep, spans, st.span, st.metric)
	}
	c.rep.set("scenario.step_rtt_p50_ms", median(rtts)*1e3)
	v, q, _ := tail(rtts)
	c.rep.set("scenario.step_rtt_p99_ms", v*1e3)
	c.rep.note("scenario.step_rtt_p99_ms", "p%.4g of %d untraced step round trips", q*100, len(rtts))
	setMedians(c.rep, cycles, streamNames, "traced scenario cycles")
	return nil
}
