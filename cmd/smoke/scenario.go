package main

import (
	"log"
	"reflect"
	"time"

	"github.com/cognitive-sim/compass/internal/compass"
	"github.com/cognitive-sim/compass/internal/e2e"
	"github.com/cognitive-sim/compass/internal/scenario"
)

// scenarioDrill runs every registered scenario against a daemon, checks
// its telemetry, pins one run by offline replay, and re-runs one
// through a coordinator that must reproduce it bit for bit.
func scenarioDrill(f *e2e.Fleet) {
	spec := func(name string) *scenario.Spec {
		s, err := scenario.Get(name)
		f.Check(err, "scenario %s", name)
		return s
	}

	// Phase 1: every registered scenario against a standalone daemon.
	c := dial(f, start(f, "solo"))
	seeds := map[string]uint64{"bandit": 7, "charrec": 11, "stroop": 3}
	soloRes := map[string]*scenario.Result{}
	for _, name := range scenario.Names() {
		res, err := scenario.Run(c, spec(name), scenario.RunOptions{Seed: seeds[name], Report: true})
		f.Check(err, "%s on solo daemon", name)
		soloRes[name] = res
		s := res.Score
		log.Printf("%-8s solo: %d eps x %d steps, reward %.1f, %d/%d correct, rtt p50 %.2fms p99 %.2fms, inject %s",
			name, res.Episodes, res.Steps, s.Reward, s.Correct, s.Steps,
			res.RTTPercentile(0.50)*1e3, res.RTTPercentile(0.99)*1e3, res.InjectHash[:12])
		if s.Steps != res.Episodes*res.Steps {
			f.Fatalf("%s: scored %d steps, expected %d", name, s.Steps, res.Episodes*res.Steps)
		}
		if s.Correct*2 < s.Steps {
			f.Fatalf("%s: only %d/%d correct — the loop is not closing", name, s.Correct, s.Steps)
		}
		if res.Info == nil || res.Info.Scenario != name {
			f.Fatalf("%s: session info is not scenario-tagged: %+v", name, res.Info)
		}
		if res.Info.StreamRTT == nil || res.Info.StreamRTT.Count == 0 {
			f.Fatalf("%s: session info carries no stream RTT stats", name)
		}
	}

	// The daemon's Prometheus surface must carry the scenario counters
	// and the inject→egress RTT histogram.
	contains(f, c, "/metrics",
		`compassd_scenario_episodes_total{scenario="bandit"}`,
		`compassd_scenario_steps_total{scenario="stroop"}`,
		`compassd_scenario_reward_total{scenario="charrec"}`,
		"compassd_stream_rtt_seconds_bucket")

	// Determinism pin: the recorded bandit inject stream replayed
	// through compass.Run must reproduce the live trajectory.
	f.Check(scenario.Replay(spec("bandit"), soloRes["bandit"], compass.Config{}), "bandit replay")
	log.Printf("bandit replay through compass.Run reproduced the live trajectory")

	// Phase 2: one scenario through a coordinator cluster — same seed,
	// so the proxied run must be bit-identical to the solo run.
	coord := start(f, "coord", "-coordinator", "-heartbeat", "500ms")
	start(f, "n1", "-join", coord.HTTPAddr, "-node-id", "n1")
	cc := dial(f, coord)
	f.Check(e2e.WaitNodes(cc, 1, 15*time.Second), "wait for nodes")
	if !cc.Cluster() {
		f.Fatalf("%s did not identify as a coordinator", coord.HTTPAddr)
	}
	res, err := scenario.Run(cc, spec("charrec"), scenario.RunOptions{Seed: seeds["charrec"], Report: true})
	f.Check(err, "charrec through coordinator")
	log.Printf("charrec cluster: session %s, reward %.1f, inject %s",
		res.SessionID, res.Score.Reward, res.InjectHash[:12])
	if res.InjectHash != soloRes["charrec"].InjectHash {
		f.Fatalf("cluster inject stream diverged from solo: %s vs %s",
			res.InjectHash, soloRes["charrec"].InjectHash)
	}
	if !reflect.DeepEqual(res.Score, soloRes["charrec"].Score) {
		f.Fatalf("cluster score diverged from solo:\n  cluster %+v\n  solo    %+v",
			res.Score, soloRes["charrec"].Score)
	}
	log.Printf("cluster-proxied run is bit-identical to the solo run")
}
