package server

import (
	"context"
	"fmt"
	"sync"

	sim "github.com/cognitive-sim/compass/internal/compass"
	"github.com/cognitive-sim/compass/internal/truenorth"
)

// This file is the serving-side scheduler and the daemon's only run
// path: every running session is a lane of a batch group. A session
// whose (model hash, ranks, threads, transport, placement) matches an
// existing group joins that group, and the group's window loop
// advances all of its members' chunks with ONE sim.RunBatchContext
// call — one kernel sweep and one Network phase per tick for the whole
// membership — instead of one independent tick loop per session. A
// faulted session, or any session when batching is disabled, gets a
// private group of its own. Sessions join and leave at chunk boundaries
// only, and each session's trace, checkpoints, and telemetry stay
// byte-identical to a solo run (the compass-level contract tested in
// internal/compass/batch_test.go), so pause, checkpoint, stream
// injection, and egress keep their exact semantics in any group.

// batchKey fingerprints everything that must match for two sessions to
// share a tick loop: the image content hash plus the full decomposition.
func batchKey(img *truenorth.Image, cfg sim.Config) string {
	placement := "block"
	if cfg.RankOf != nil {
		// Hash the explicit placement so region-aware placements only
		// group with identical placements.
		h := uint64(1469598103934665603)
		for _, r := range cfg.RankOf {
			h = (h ^ uint64(r)) * 1099511628211
		}
		placement = fmt.Sprintf("p%x", h)
	}
	return fmt.Sprintf("%s|r%d|t%d|%s|%s", img.Hash(), cfg.Ranks, cfg.ThreadsPerRank, cfg.Transport, placement)
}

// batchReq is one session's pending chunk: the session's context, the
// lane description, the requested tick count, and the channel its
// window result lands on.
type batchReq struct {
	ctx   context.Context
	lane  sim.BatchLane
	ticks int
	resC  chan batchRes // buffered; the window loop never blocks on it
}

// batchRes is one lane's share of a finished window.
type batchRes struct {
	stats *sim.RunStats
	lane  int
	sweep float64
	err   error
}

// batchGroup coalesces the chunks of same-keyed sessions into shared
// RunBatch windows. A window takes every request waiting at its start
// and runs min(requested ticks) ticks, so all lanes stay at chunk
// granularity and a short final chunk simply shortens one window —
// sessions whose request was trimmed resubmit their remainder and ride
// the next window.
type batchGroup struct {
	key string
	img *truenorth.Image
	cfg sim.Config // shared decomposition; ReturnState set, per-session fields empty

	// private marks a one-session group (its key carries the session
	// ID): it is not reported as a batch group and feeds no batching
	// metrics.
	private bool

	// onWindow/onWindowDone feed the manager's occupancy gauge and
	// per-sweep histogram; either may be nil.
	onWindow     func(lanes int)
	onWindowDone func(lanes int, sweepSeconds float64)

	mu      sync.Mutex
	waiting []*batchReq
	running bool
	refs    int // sessions routed to this group by the manager
}

func newBatchGroup(key string, img *truenorth.Image, cfg sim.Config, private bool) *batchGroup {
	cfg.StartFrom = nil
	cfg.InputSource = nil
	cfg.OutputSink = nil
	cfg.Telemetry = nil
	cfg.RecordTrace = false
	cfg.RecordPerTick = false
	cfg.MeasurePhases = false
	cfg.ReturnState = true
	return &batchGroup{key: key, img: img, cfg: cfg, private: private}
}

// exec runs one chunk of a member session through the group: it
// enqueues the lane, wakes the window loop, and blocks until the window
// carrying the lane completes. A request still waiting is withdrawn
// on cancellation immediately; once its window is in flight exec waits
// for the window's result (a one-lane window stops at the next tick
// boundary, a shared one runs out its at most one chunk).
func (g *batchGroup) exec(ctx context.Context, lane sim.BatchLane, ticks int) (*sim.RunStats, int, float64, error) {
	req := &batchReq{ctx: ctx, lane: lane, ticks: ticks, resC: make(chan batchRes, 1)}
	g.mu.Lock()
	g.waiting = append(g.waiting, req)
	if !g.running {
		g.running = true
		go g.windowLoop()
	}
	g.mu.Unlock()

	select {
	case res := <-req.resC:
		return res.stats, res.lane, res.sweep, res.err
	case <-ctx.Done():
		// Try to withdraw; if the window already took the request, its
		// result is imminent — wait for it so the session's checkpoint
		// reflects the ticks that actually ran.
		g.mu.Lock()
		for i, w := range g.waiting {
			if w == req {
				g.waiting = append(g.waiting[:i], g.waiting[i+1:]...)
				g.mu.Unlock()
				return nil, 0, 0, ctx.Err()
			}
		}
		g.mu.Unlock()
		res := <-req.resC
		return res.stats, res.lane, res.sweep, res.err
	}
}

// windowLoop drains the waiting list window by window: each iteration
// takes every request present (up to the lane limit), advances them
// together, and delivers per-lane results. It exits when a window
// boundary finds nobody waiting.
func (g *batchGroup) windowLoop() {
	for {
		g.mu.Lock()
		if len(g.waiting) == 0 {
			g.running = false
			g.mu.Unlock()
			return
		}
		take := len(g.waiting)
		if take > truenorth.MaxLanes {
			take = truenorth.MaxLanes
		}
		reqs := make([]*batchReq, take)
		copy(reqs, g.waiting[:take])
		rest := g.waiting[take:]
		g.waiting = append(g.waiting[:0], rest...)
		g.mu.Unlock()

		ticks := reqs[0].ticks
		lanes := make([]sim.BatchLane, len(reqs))
		for i, r := range reqs {
			if r.ticks < ticks {
				ticks = r.ticks
			}
			lanes[i] = r.lane
		}
		if g.onWindow != nil {
			g.onWindow(len(reqs))
		}
		// A one-lane window is its session's own run, so the session's
		// cancellation interrupts it mid-window; a shared window runs
		// out (it is at most one chunk long).
		ctx := context.Background()
		if len(reqs) == 1 {
			ctx = reqs[0].ctx
		}
		res, err := sim.RunBatchContext(ctx, g.img, g.cfg, ticks, lanes)
		if g.onWindowDone != nil {
			sweep := 0.0
			if err == nil {
				sweep = res.SweepSeconds
			}
			g.onWindowDone(len(reqs), sweep)
		}
		for i, r := range reqs {
			if err != nil {
				r.resC <- batchRes{err: err}
				continue
			}
			r.resC <- batchRes{stats: res.Lanes[i], lane: i, sweep: res.SweepSeconds}
		}
	}
}
