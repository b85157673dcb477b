package main

import (
	"testing"

	"github.com/cognitive-sim/compass/internal/scenario"
	"github.com/cognitive-sim/compass/internal/server"
)

// The output checks count a failure the moment one total is corrupted.
func TestChecksFireOnCorruptedTotals(t *testing.T) {
	want := totals{Spikes: 100, SynapticEvents: 2000, Messages: 30, WireBytes: 400}
	for _, corrupt := range []func(*totals){
		func(x *totals) { x.Spikes++ },
		func(x *totals) { x.SynapticEvents-- },
		func(x *totals) { x.Messages++ },
		func(x *totals) { x.WireBytes += 20 },
	} {
		got := want
		corrupt(&got)
		r := newReport()
		checkJob(r, 0, want, want, "pinned")
		checkJob(r, 1, got, want, "pinned")
		if r.failed != 1 || r.checks["cocomac job totals vs pinned"] != 1 || len(r.failures) != 1 {
			t.Errorf("corrupted %+v: failed=%d checks=%v", got, r.failed, r.checks)
		}
	}

	in := &fleetInput{want: server.Totals{Spikes: 10, Firings: 9, Messages: 8}, hash: "abc"}
	good := server.Info{ID: "s1", State: "done", Totals: in.want, ModelHash: "abc"}
	r := newReport()
	checkSession(r, 0, good, in)
	bad := good
	bad.Totals.Firings++
	checkSession(r, 0, bad, in)
	wrongImage := good
	wrongImage.ModelHash = "abd"
	checkSession(r, 0, wrongImage, in)
	failedRun := good
	failedRun.State = "failed"
	checkSession(r, 0, failedRun, in)
	if r.failed != 3 {
		t.Errorf("session checks: failed=%d, want 3", r.failed)
	}

	ref := loopRef{hash: "h", score: scenario.Score{Steps: 400, Reward: 300}}
	r = newReport()
	checkCycle(r, "cycle", 1, 400, "h", ref.score, ref)
	checkCycle(r, "cycle", 2, 400, "x", ref.score, ref)
	other := ref.score
	other.Reward++
	checkCycle(r, "cycle", 3, 400, "h", other, ref)
	if r.attempted != 1200 || r.failed != 800 {
		t.Errorf("cycle checks: attempted=%d failed=%d, want 1200 and 800", r.attempted, r.failed)
	}
}
