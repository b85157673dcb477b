package cluster

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"github.com/cognitive-sim/compass/internal/server"
	"github.com/cognitive-sim/compass/internal/spikeio"
)

// Options configures a Coordinator.
type Options struct {
	// HTTPAddr is the cluster control-plane listen address; StreamAddr
	// the listen address of the session-following stream proxy.
	HTTPAddr   string
	StreamAddr string
	// HeartbeatInterval paces node heartbeats and the monitor loop; a
	// node whose heartbeats lapse for LapseFactor intervals is declared
	// dead and its sessions are restored elsewhere. Defaults: 2s, 4.
	HeartbeatInterval time.Duration
	LapseFactor       int
	// RebalanceThreshold is the utilization spread (hottest minus
	// coolest node, as a fraction of capacity) that, sustained for
	// RebalanceRounds monitor rounds, triggers one migration from the
	// hottest node to the coolest. <= 0 disables rebalancing.
	// Defaults: 0.3, 3.
	RebalanceThreshold float64
	RebalanceRounds    int
	// MaxRestores caps failover attempts per session before it is
	// marked failed for good. Default 3.
	MaxRestores int
	// NodeTimeout bounds individual control-plane calls to nodes.
	// Default 30s.
	NodeTimeout time.Duration
	// Logf receives coordinator event lines; nil means log.Printf.
	Logf func(format string, args ...any)
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.HeartbeatInterval <= 0 {
		out.HeartbeatInterval = 2 * time.Second
	}
	if out.LapseFactor <= 0 {
		out.LapseFactor = 4
	}
	if out.RebalanceThreshold == 0 {
		out.RebalanceThreshold = 0.3
	}
	if out.RebalanceRounds <= 0 {
		out.RebalanceRounds = 3
	}
	if out.MaxRestores <= 0 {
		out.MaxRestores = 3
	}
	if out.NodeTimeout <= 0 {
		out.NodeTimeout = 30 * time.Second
	}
	if out.Logf == nil {
		out.Logf = log.Printf
	}
	return out
}

// node is the coordinator's view of one registered compassd.
type node struct {
	id           string
	httpAddr     string
	streamAddr   string
	capacity     float64
	memoryBudget int64
	client       *server.Client

	// All below are guarded by the coordinator's mu.
	lastSeen time.Time
	used     float64
	memUsed  int64
	resident map[string]bool
	running  int
	queued   int
	draining bool
	dead     bool
}

// rec is the coordinator's record of one cluster session.
type rec struct {
	clusterID string
	req       server.CreateRequest // original request; source doubles as rebuild fallback

	// Ownership: which node hosts the session right now, under which
	// node-local ID, at which generation. Every migration or restore
	// bumps gen; stale pushes and pulses from older generations are
	// ignored by (node, nodeSessionID) mismatch.
	nodeID        string
	nodeSessionID string
	gen           int
	placedAt      time.Time
	misses        int // consecutive owner heartbeats that omitted the session

	modelHash     string
	lastExport    *server.ExportDoc // latest pushed boundary state
	committedTick uint64            // egress release horizon for the proxy
	migrations    int
	restores      int
	userPaused    bool // client asked for paused; restores keep it parked
	ended         bool
	endState      string
	migrating     bool // a planned migration holds the record

	// Stream proxy state: inject journal for failover replay, and the
	// generation the proxy last attached to (migration waits for the
	// proxy to re-attach before resuming, so no egress is missed).
	journal     []spikeio.Event
	proxyRefs   int
	attachedGen int

	// Inject-forwarder cursor. The journal is the single source of truth
	// for proxied injects; a per-record forwarder goroutine delivers it
	// to whichever node owns the session. jBase is the absolute index of
	// journal[0] (prefix trims advance it), fwdAbs the absolute index of
	// the next entry to deliver, fwdSent the entries delivered to the
	// current generation (the migration barrier's target), fwdStarted
	// the lazy-start guard.
	jBase      int
	fwdAbs     int
	fwdSent    uint64
	fwdStarted bool
	genPending int // pending spikes the current generation's import injected
}

// Coordinator is the cluster control plane.
type Coordinator struct {
	opts Options

	mu    sync.Mutex
	cond  *sync.Cond // broadcast on any ownership/commit/end change
	nodes map[string]*node
	recs  map[string]*rec
	next  int

	imbalanceFor int // consecutive monitor rounds over the threshold

	httpLn   net.Listener
	streamLn net.Listener
	httpSrv  *http.Server
	stop     chan struct{}
	wg       sync.WaitGroup
	started  time.Time
}

// NewCoordinator builds an unstarted coordinator.
func NewCoordinator(opts Options) *Coordinator {
	c := &Coordinator{
		opts:  opts.withDefaults(),
		nodes: make(map[string]*node),
		recs:  make(map[string]*rec),
		stop:  make(chan struct{}),
	}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// Start binds the control and stream listeners and begins the monitor
// loop.
func (c *Coordinator) Start() error {
	c.started = time.Now()
	httpLn, err := net.Listen("tcp", c.opts.HTTPAddr)
	if err != nil {
		return fmt.Errorf("cluster: http listen: %w", err)
	}
	streamLn, err := net.Listen("tcp", c.opts.StreamAddr)
	if err != nil {
		httpLn.Close()
		return fmt.Errorf("cluster: stream listen: %w", err)
	}
	c.httpLn, c.streamLn = httpLn, streamLn
	c.httpSrv = &http.Server{Handler: c.handler()}
	go c.httpSrv.Serve(httpLn)
	c.wg.Add(2)
	go c.acceptProxy(streamLn)
	go c.monitor()
	return nil
}

// HTTPAddr returns the bound control-plane address.
func (c *Coordinator) HTTPAddr() string { return c.httpLn.Addr().String() }

// StreamAddr returns the bound stream-proxy address.
func (c *Coordinator) StreamAddr() string { return c.streamLn.Addr().String() }

// Shutdown stops serving. Sessions keep running on their nodes; a
// coordinator restart re-learns the fleet from re-registrations.
func (c *Coordinator) Shutdown(ctx context.Context) error {
	close(c.stop)
	c.streamLn.Close()
	err := c.httpSrv.Shutdown(ctx)
	c.mu.Lock()
	c.cond.Broadcast()
	c.mu.Unlock()
	c.wg.Wait()
	return err
}

func (c *Coordinator) logf(format string, args ...any) {
	c.opts.Logf("coordinator: "+format, args...)
}

// register adds or replaces a node.
func (c *Coordinator) register(req *RegisterRequest) error {
	if req.NodeID == "" || req.HTTPAddr == "" {
		return fmt.Errorf("cluster: registration needs node_id and http_addr")
	}
	n := &node{
		id:           req.NodeID,
		httpAddr:     req.HTTPAddr,
		streamAddr:   req.StreamAddr,
		capacity:     req.Capacity,
		memoryBudget: req.MemoryBudget,
		client:       server.NewClient(req.HTTPAddr, c.opts.NodeTimeout),
		lastSeen:     time.Now(),
		resident:     make(map[string]bool),
	}
	if n.capacity <= 0 {
		n.capacity = 1.0
	}
	c.mu.Lock()
	prev := c.nodes[req.NodeID]
	c.nodes[req.NodeID] = n
	c.mu.Unlock()
	if prev != nil {
		c.logf("node %s re-registered at %s (was %s)", req.NodeID, req.HTTPAddr, prev.httpAddr)
	} else {
		c.logf("node %s registered at %s (capacity %.3g s/tick)", req.NodeID, req.HTTPAddr, n.capacity)
	}
	return nil
}

// heartbeat folds one node report in and flags sessions needing
// attention (terminal pulses, sessions missing from their owner).
func (c *Coordinator) heartbeat(hb *Heartbeat) error {
	c.mu.Lock()
	n := c.nodes[hb.NodeID]
	if n == nil {
		c.mu.Unlock()
		return fmt.Errorf("cluster: unknown node %q (register first)", hb.NodeID)
	}
	if n.dead {
		// A node declared dead that heartbeats again is alive after all,
		// but its sessions have been restored elsewhere; make it
		// re-register as a fresh, empty node instead of resurrecting it.
		c.mu.Unlock()
		return fmt.Errorf("cluster: node %q was declared dead (re-register)", hb.NodeID)
	}
	n.lastSeen = time.Now()
	n.used = hb.Used
	n.memUsed = hb.MemUsed
	n.running = hb.Running
	n.queued = hb.Queued
	n.resident = make(map[string]bool, len(hb.Resident))
	for _, h := range hb.Resident {
		n.resident[h] = true
	}
	// A snapshot taken before a just-placed session was admitted must
	// not wipe the eager residency mark from create/import: images of
	// live sessions the coordinator placed here are resident by
	// construction (the daemon's cache pins them while resident), so
	// affinity placement keeps seeing them between heartbeats.
	for _, r := range c.recs {
		if r.nodeID == hb.NodeID && !r.ended && r.modelHash != "" {
			n.resident[r.modelHash] = true
		}
	}
	pulse := make(map[string]SessionPulse, len(hb.Sessions))
	for _, p := range hb.Sessions {
		pulse[p.ID] = p
	}
	type action struct {
		r       *rec
		restore bool
		state   string
		errMsg  string
	}
	var acts []action
	for _, r := range c.recs {
		if r.nodeID != hb.NodeID || r.ended || r.migrating {
			continue
		}
		p, ok := pulse[r.nodeSessionID]
		if !ok {
			// The owner no longer knows the session (daemon restarted
			// under the same ID, or it was deleted out-of-band). Tolerate
			// two rounds of absence — a session placed moments ago can race
			// the heartbeat snapshot — then restore.
			if time.Since(r.placedAt) > 2*c.opts.HeartbeatInterval {
				r.misses++
				if r.misses >= 2 {
					acts = append(acts, action{r: r, restore: true, errMsg: "session missing from owner"})
				}
			}
			continue
		}
		r.misses = 0
		switch p.State {
		case "done", "drained", "cancelled":
			// Normal end of life. Drained/cancelled can only happen via
			// the cluster API (which marks ended itself) or out-of-band;
			// either way there is nothing left to failover.
			acts = append(acts, action{r: r, state: p.State})
		case "failed":
			if r.req.Faults != "" && r.restores < c.opts.MaxRestores {
				// A crash-faulted session: the chaos drill. Restore it
				// elsewhere from its last pushed boundary, without the
				// fault rules (replaying them would re-fire the crash).
				acts = append(acts, action{r: r, restore: true, errMsg: p.Error})
			} else {
				acts = append(acts, action{r: r, state: "failed", errMsg: p.Error})
			}
		}
	}
	c.mu.Unlock()

	for _, a := range acts {
		if a.restore {
			c.logf("session %s on %s needs restore: %s", a.r.clusterID, hb.NodeID, a.errMsg)
			go c.restore(a.r, a.errMsg)
		} else {
			c.endSession(a.r, a.state, a.errMsg)
		}
	}
	return nil
}

// endSession marks a record terminal and wakes the proxy so it can
// flush and close.
func (c *Coordinator) endSession(r *rec, state, errMsg string) {
	c.mu.Lock()
	if !r.ended {
		r.ended = true
		r.endState = state
		if state == "done" && r.lastExport != nil {
			// The final boundary push covers every emitted record; move
			// the horizon past it so the proxy flushes the tail.
			if t := r.lastExport.Tick; t > r.committedTick {
				r.committedTick = t
			}
		}
		c.cond.Broadcast()
	}
	c.mu.Unlock()
	_ = errMsg
}

// checkpointPush folds a node agent's boundary report into the record
// it matches; stale pushes (older generation owners) are dropped.
func (c *Coordinator) checkpointPush(p *CheckpointPush) {
	c.mu.Lock()
	defer c.mu.Unlock()
	// A node declared dead may still be alive and pushing (lost
	// heartbeats only). Its sessions are being restored from the last
	// push read *before* the declaration; accepting later pushes would
	// advance the commit horizon past the restore boundary and release
	// records the restored run will emit again.
	if n := c.nodes[p.NodeID]; n == nil || n.dead {
		return
	}
	for _, r := range c.recs {
		// A record held by a mover is being re-hosted from a boundary
		// it has already read. A push landing now (an async push for a
		// later boundary, racing a crash-fault restore) must not advance
		// the horizon: the proxy would release the old owner's records
		// up to it, and the new owner, replaying from the earlier
		// boundary, would emit them again.
		if r.nodeID == p.NodeID && r.nodeSessionID == p.NodeSessionID && !r.ended && !r.migrating {
			doc := p.Export
			// Pushes ship asynchronously and can land out of order; keep
			// the newest boundary.
			if r.lastExport == nil || doc.Tick >= r.lastExport.Tick {
				r.lastExport = &doc
			}
			if r.modelHash == "" {
				r.modelHash = doc.ModelHash
			}
			if doc.Tick > r.committedTick {
				r.committedTick = doc.Tick
			}
			// The pushed document carries everything needed to replay
			// from its boundary; journal entries at or past it are merged
			// at restore time, so older entries can be dropped here.
			c.trimJournalLocked(r)
			c.cond.Broadcast()
			return
		}
	}
}

// trimJournalLocked drops the journal prefix already covered by the
// last pushed checkpoint: entries both delivered to the owner (absolute
// index below the forwarder cursor) and stamped below the boundary
// (their effect — delivery or pending — is inside the push). Trimming
// is prefix-only so absolute indices stay meaningful; jBase advances by
// the dropped count. Callers hold mu.
func (c *Coordinator) trimJournalLocked(r *rec) {
	if r.lastExport == nil || len(r.journal) == 0 {
		return
	}
	horizon := r.lastExport.Tick
	drop := 0
	for _, ev := range r.journal {
		if ev.Tick >= horizon || r.jBase+drop >= r.fwdAbs {
			break
		}
		drop++
	}
	if drop == 0 {
		return
	}
	r.journal = append(r.journal[:0], r.journal[drop:]...)
	r.jBase += drop
}

// startForwarderLocked launches the record's inject forwarder on first
// use (first journaled entry). Callers hold mu.
func (c *Coordinator) startForwarderLocked(r *rec) {
	if r.fwdStarted {
		return
	}
	r.fwdStarted = true
	c.wg.Add(1)
	go c.runForwarder(r)
}

// stopping reports whether Shutdown has begun.
func (c *Coordinator) stopping() bool {
	select {
	case <-c.stop:
		return true
	default:
		return false
	}
}

// fwdPause sleeps one retry interval on the forwarder's reused timer;
// false means shutdown. The timer belongs to the calling loop so retry
// storms reuse one allocation instead of leaving a pending time.After
// timer per iteration.
func (c *Coordinator) fwdPause(retry *reusableTimer) bool {
	select {
	case <-c.stop:
		retry.Disarm()
		return false
	case <-retry.Arm(proxyDialRetry):
		return true
	}
}

// runForwarder delivers the record's inject journal to the session's
// current owner, one generation at a time. It is the only path by which
// proxied injects reach a daemon: the proxy's client reader just
// journals (so a slow or unreachable owner can never stall frame
// intake), and this goroutine drains the journal from the generation's
// cursor. adoptOwner re-cursors to the resume boundary's suffix, which
// is what makes migration and failover lossless — whatever the old
// owner did or did not consume, the new owner receives every entry at
// or past its boundary before it is resumed (awaitInjectSync gates the
// resume). Same-tick duplicate delivery is idempotent, so a cross-
// generation re-send of an entry the export already captured is
// harmless.
func (c *Coordinator) runForwarder(r *rec) {
	defer c.wg.Done()
	retry := newReusableTimer()
	defer retry.Disarm()
	var up *server.StreamClient
	upGen := -1
	defer func() {
		if up != nil {
			up.Close()
		}
	}()
	for {
		c.mu.Lock()
		for !r.ended && !c.stopping() && r.fwdAbs >= r.jBase+len(r.journal) {
			c.cond.Wait()
		}
		if r.ended || c.stopping() {
			c.mu.Unlock()
			return
		}
		gen := r.gen
		start := r.fwdAbs - r.jBase
		if start < 0 {
			// Defensive: a trim may never pass the cursor, but clamp so a
			// future invariant slip re-sends (idempotent) instead of
			// panicking.
			start = 0
			r.fwdAbs = r.jBase
		}
		batch := append([]spikeio.Event(nil), r.journal[start:]...)
		var addr, sid string
		if n := c.nodes[r.nodeID]; n != nil && !n.dead {
			addr, sid = n.streamAddr, r.nodeSessionID
		}
		c.mu.Unlock()

		if up != nil && upGen != gen {
			up.Close()
			up = nil
		}
		if up == nil {
			if addr == "" {
				if !c.fwdPause(retry) {
					return
				}
				continue
			}
			cl, err := server.DialStream(addr, sid, server.StreamFlagInject)
			if err != nil {
				if !c.fwdPause(retry) {
					return
				}
				continue
			}
			up, upGen = cl, gen
		}
		if err := up.Send(batch); err != nil {
			up.Close()
			up = nil
			if !c.fwdPause(retry) {
				return
			}
			continue
		}
		c.mu.Lock()
		// Only credit the send if ownership held: a generation bump
		// mid-send re-cursored fwdAbs, and the new owner must get the
		// suffix again.
		if r.gen == gen {
			r.fwdAbs += len(batch)
			r.fwdSent += uint64(len(batch))
			c.cond.Broadcast()
		}
		c.mu.Unlock()
	}
}

// aliveNodesLocked lists nodes with fresh heartbeats. Callers hold mu.
func (c *Coordinator) aliveNodesLocked() []*node {
	lapse := time.Duration(c.opts.LapseFactor) * c.opts.HeartbeatInterval
	out := make([]*node, 0, len(c.nodes))
	for _, n := range c.nodes {
		if !n.dead && time.Since(n.lastSeen) <= lapse {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// monitor is the coordinator's periodic sweep: detect dead nodes and
// restore their sessions, and trigger rebalancing on sustained
// imbalance.
func (c *Coordinator) monitor() {
	defer c.wg.Done()
	t := time.NewTicker(c.opts.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
		}
		c.sweepDead()
		c.maybeRebalance()
	}
}

// sweepDead declares lapsed nodes dead and restores their sessions.
func (c *Coordinator) sweepDead() {
	lapse := time.Duration(c.opts.LapseFactor) * c.opts.HeartbeatInterval
	c.mu.Lock()
	var dead []*node
	for _, n := range c.nodes {
		if !n.dead && time.Since(n.lastSeen) > lapse {
			n.dead = true
			dead = append(dead, n)
		}
	}
	var orphans []*rec
	for _, n := range dead {
		for _, r := range c.recs {
			if r.nodeID == n.id && !r.ended && !r.migrating {
				orphans = append(orphans, r)
			}
		}
	}
	c.mu.Unlock()
	for _, n := range dead {
		c.logf("node %s heartbeats lapsed (> %v); declaring dead", n.id, lapse)
	}
	for _, r := range orphans {
		go c.restore(r, "node heartbeats lapsed")
	}
}

// maybeRebalance migrates one session from the hottest to the coolest
// node when the utilization spread stays above the threshold for the
// configured number of rounds.
func (c *Coordinator) maybeRebalance() {
	if c.opts.RebalanceThreshold <= 0 {
		return
	}
	c.mu.Lock()
	alive := c.aliveNodesLocked()
	if len(alive) < 2 {
		c.imbalanceFor = 0
		c.mu.Unlock()
		return
	}
	var hot, cool *node
	for _, n := range alive {
		if n.draining {
			continue
		}
		if hot == nil || n.used/n.capacity > hot.used/hot.capacity {
			hot = n
		}
		if cool == nil || n.used/n.capacity < cool.used/cool.capacity {
			cool = n
		}
	}
	if hot == nil || cool == nil || hot == cool ||
		hot.used/hot.capacity-cool.used/cool.capacity < c.opts.RebalanceThreshold {
		c.imbalanceFor = 0
		c.mu.Unlock()
		return
	}
	c.imbalanceFor++
	if c.imbalanceFor < c.opts.RebalanceRounds {
		c.mu.Unlock()
		return
	}
	c.imbalanceFor = 0
	// Move the cheapest migratable session off the hot node — the
	// smallest step that closes the gap without thrashing.
	var pick *rec
	for _, r := range c.recs {
		if r.nodeID != hot.id || r.ended || r.migrating {
			continue
		}
		if pick == nil || r.clusterID < pick.clusterID {
			pick = r
		}
	}
	hotID, coolID := hot.id, cool.id
	c.mu.Unlock()
	if pick == nil {
		return
	}
	c.logf("rebalancing: moving %s from %s to %s", pick.clusterID, hotID, coolID)
	if _, err := c.Migrate(pick.clusterID, coolID); err != nil {
		c.logf("rebalance of %s failed: %v", pick.clusterID, err)
	}
}

// DrainNode migrates every session off a node (rolling-restart
// support) and marks it out of placement. It returns the sessions
// moved and any that could not be.
func (c *Coordinator) DrainNode(nodeID string) (moved, stuck []string, err error) {
	c.mu.Lock()
	n := c.nodes[nodeID]
	if n == nil {
		c.mu.Unlock()
		return nil, nil, fmt.Errorf("cluster: unknown node %q", nodeID)
	}
	n.draining = true
	var ids []string
	for id, r := range c.recs {
		if r.nodeID == nodeID && !r.ended {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	c.mu.Unlock()
	for _, id := range ids {
		if _, err := c.Migrate(id, ""); err != nil {
			c.logf("drain of %s: session %s stuck: %v", nodeID, id, err)
			stuck = append(stuck, id)
			continue
		}
		moved = append(moved, id)
	}
	return moved, stuck, nil
}

// Deregister removes a node from the registry (after its daemon shut
// down cleanly). Sessions still recorded against it are restored by
// the ordinary missing-owner path if any were left behind.
func (c *Coordinator) Deregister(nodeID string) {
	c.mu.Lock()
	delete(c.nodes, nodeID)
	c.mu.Unlock()
}

// sessionStatusLocked builds the status document. Callers hold mu.
func (r *rec) statusLocked() SessionStatus {
	return SessionStatus{
		ClusterID:     r.clusterID,
		Node:          r.nodeID,
		Generation:    r.gen,
		Migrations:    r.migrations,
		Restores:      r.restores,
		CommittedTick: r.committedTick,
		ModelHash:     r.modelHash,
		Ended:         r.ended,
		EndState:      r.endState,
	}
}

// getRec looks a cluster session up.
func (c *Coordinator) getRec(id string) (*rec, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.recs[id]
	if !ok {
		return nil, fmt.Errorf("cluster: no such session %q", id)
	}
	return r, nil
}

// ownerClient returns the current owner's client and node session id.
func (c *Coordinator) ownerClient(r *rec) (*server.Client, string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.nodes[r.nodeID]
	if n == nil {
		return nil, "", fmt.Errorf("cluster: session %s owner %s not registered", r.clusterID, r.nodeID)
	}
	return n.client, r.nodeSessionID, nil
}
