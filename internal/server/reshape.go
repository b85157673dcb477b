package server

import (
	"fmt"

	sim "github.com/cognitive-sim/compass/internal/compass"
	"github.com/cognitive-sim/compass/internal/reshape"
	"github.com/cognitive-sim/compass/internal/telemetry"
)

// Elastic repartitioning, serving side: every session runner evaluates
// its reshape policy at each chunk boundary against the chunk's own
// per-rank telemetry. When the Compute imbalance (max/mean synaptic
// events over occupied ranks) crosses the configured threshold, the
// runner swaps the session's decomposition for a cost-weighted plan
// from internal/reshape and resumes the next chunk from the boundary
// checkpoint on the new placement. The spike output is bit-identical
// either way (see internal/compass/reshape.go); only the wall-clock
// balance changes.

// ReshapeEvent records one applied repartition in the session's Info.
type ReshapeEvent struct {
	// Tick is the chunk boundary the reshape took effect at.
	Tick uint64 `json:"tick"`
	// FromRanks and ToRanks are the rank counts either side of the
	// reshape (equal for the automatic policy, which only moves cores).
	FromRanks int `json:"from_ranks"`
	ToRanks   int `json:"to_ranks"`
	// MovedCores counts cores whose rank assignment changed.
	MovedCores int `json:"moved_cores"`
	// ComputeBefore is the measured Compute imbalance that triggered the
	// reshape; ComputePredicted is the plan's projected imbalance under
	// the same loads.
	ComputeBefore    float64 `json:"compute_imbalance_before"`
	ComputePredicted float64 `json:"compute_imbalance_predicted"`
}

// maybeReshape runs on the session runner between chunks, with the
// session parked at its boundary checkpoint. It publishes the chunk's
// imbalance gauge and, when the policy fires and the planner actually
// improves the partition, swaps the session's decomposition in place.
func (s *Session) maybeReshape(stats *sim.RunStats) {
	imb := stats.LoadImbalance()
	if s.gImbalance != nil {
		s.gImbalance.Set(0, imb.Compute)
	}
	s.mu.Lock()
	s.sinceReshape++
	pol := s.reshapePolicy
	since := s.sinceReshape
	cfg := s.cfg
	skip := s.ticksDone >= s.ticksTotal // nothing left to rebalance for
	s.mu.Unlock()
	if skip || !pol.ShouldReshape(imb, since) {
		return
	}
	plan, err := reshape.Compute(cfg.Placement(s.img.NumCores()), reshape.LoadsFromStats(stats), 0)
	if err != nil || plan.MovedCores == 0 {
		return
	}
	newCfg, err := cfg.Reshape(s.img, plan.ReshapePlan)
	if err != nil {
		return
	}
	s.applyReshape(newCfg, ReshapeEvent{
		FromRanks:        plan.FromRanks,
		ToRanks:          plan.Ranks,
		MovedCores:       plan.MovedCores,
		ComputeBefore:    imb.Compute,
		ComputePredicted: plan.PredictedCompute,
	})
}

// Reshape applies an explicit repartition plan — possibly with a
// different rank count — to a parked session; the next chunk resumes
// from the boundary checkpoint on the new decomposition. The session
// must be paused or still queued so no chunk is in flight. Growing the
// rank count past the session's telemetry shard count rebuilds the
// per-session metrics registry, restarting its counters from zero. The
// admission cost is not re-priced.
func (s *Session) Reshape(p sim.ReshapePlan) error {
	s.mu.Lock()
	if s.state != StatePaused && s.state != StateQueued {
		st := s.state
		s.mu.Unlock()
		return fmt.Errorf("server: session %s is %s; reshape needs a paused or queued session", s.ID, st)
	}
	cfg := s.cfg
	s.mu.Unlock()

	newCfg, err := cfg.Reshape(s.img, p)
	if err != nil {
		return err
	}
	n := s.img.NumCores()
	moved := 0
	if oldP, newP := cfg.Placement(n), newCfg.Placement(n); true {
		for i := range oldP {
			if oldP[i] != newP[i] {
				moved++
			}
		}
	}
	if s.tel.Registry().Shards() < newCfg.Ranks {
		s.tel = sim.NewTelemetryWithLabels(newCfg.Ranks, telemetry.Label{Key: "session", Value: s.ID})
	}
	s.applyReshape(newCfg, ReshapeEvent{
		FromRanks:  cfg.Ranks,
		ToRanks:    newCfg.Ranks,
		MovedCores: moved,
	})
	return nil
}

// applyReshape installs the new decomposition, records the event, and
// notifies the manager so the session's batch group membership follows
// its new (decomposition-keyed) group.
func (s *Session) applyReshape(newCfg sim.Config, ev ReshapeEvent) {
	s.mu.Lock()
	ev.Tick = s.cp.Tick
	s.cfg = newCfg
	s.sinceReshape = 0
	s.reshapes = append(s.reshapes, ev)
	hook := s.onReshape
	s.mu.Unlock()
	if hook != nil {
		hook(s, newCfg)
	}
}

// setGroup swaps the session's batch group under the session lock (the
// runner and Info read s.group under it).
func (s *Session) setGroup(g *batchGroup) {
	s.mu.Lock()
	s.group = g
	s.mu.Unlock()
}

// noteReshape is the manager's reshape hook: it counts the event and
// moves the session to the batch group matching its new decomposition —
// the batch key hashes the placement, so a reshaped session can never
// keep sharing a tick loop keyed to its old layout.
func (m *Manager) noteReshape(s *Session, cfg sim.Config) {
	m.mReshapes.Inc(0)
	m.mu.Lock()
	defer m.mu.Unlock()
	old := s.group
	if key, _ := m.groupKey(s, cfg); key == old.key {
		return
	}
	old.refs--
	if old.refs <= 0 {
		delete(m.groups, old.key)
	}
	m.joinGroupLocked(s, cfg)
}
