package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"github.com/cognitive-sim/compass/internal/server"
)

// The cluster control plane mirrors the shape of a single compassd
// control plane — same JSON error envelope, same lifecycle verbs — so
// a client can talk to a coordinator almost exactly like it talks to
// one daemon, with session IDs that stay stable across migrations.

func clusterError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

func clusterJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// nodeStatusLocked builds a node's status document. Callers hold mu.
func (c *Coordinator) nodeStatusLocked(n *node) NodeStatus {
	lapse := time.Duration(c.opts.LapseFactor) * c.opts.HeartbeatInterval
	sessions := 0
	for _, r := range c.recs {
		if r.nodeID == n.id && !r.ended {
			sessions++
		}
	}
	resident := make([]string, 0, len(n.resident))
	for h := range n.resident {
		resident = append(resident, h)
	}
	sort.Strings(resident)
	return NodeStatus{
		ID:           n.id,
		HTTPAddr:     n.httpAddr,
		StreamAddr:   n.streamAddr,
		Capacity:     n.capacity,
		Used:         n.used,
		MemoryBudget: n.memoryBudget,
		MemUsed:      n.memUsed,
		Running:      n.running,
		Queued:       n.queued,
		Sessions:     sessions,
		Resident:     resident,
		Draining:     n.draining,
		AgeSeconds:   time.Since(n.lastSeen).Seconds(),
		Alive:        !n.dead && time.Since(n.lastSeen) <= lapse,
	}
}

// status returns a session's status, with the owner's live info when
// the owner is reachable.
func (c *Coordinator) status(r *rec) SessionStatus {
	c.mu.Lock()
	st := r.statusLocked()
	ended := r.ended
	c.mu.Unlock()
	if ended {
		return st
	}
	if nc, id, err := c.ownerClient(r); err == nil {
		if info, err := nc.sessionInfo(id); err == nil {
			st.Info = info
		}
	}
	return st
}

// handler builds the coordinator control-plane mux.
func (c *Coordinator) handler() http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		c.mu.Lock()
		alive := len(c.aliveNodesLocked())
		nodes := len(c.nodes)
		active := 0
		for _, rc := range c.recs {
			if !rc.ended {
				active++
			}
		}
		total := len(c.recs)
		c.mu.Unlock()
		clusterJSON(w, http.StatusOK, map[string]any{
			"status":         "ok",
			"role":           "coordinator",
			"uptime_seconds": int64(time.Since(c.started).Seconds()),
			"stream_addr":    c.StreamAddr(),
			"nodes":          map[string]int{"alive": alive, "total": nodes},
			"sessions":       map[string]int{"active": active, "total": total},
		})
	})

	// Fleet membership.
	mux.HandleFunc("POST /v1/cluster/nodes/register", func(w http.ResponseWriter, r *http.Request) {
		var req RegisterRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			clusterError(w, http.StatusBadRequest, fmt.Errorf("cluster: decode register: %w", err))
			return
		}
		if err := c.register(&req); err != nil {
			clusterError(w, http.StatusBadRequest, err)
			return
		}
		clusterJSON(w, http.StatusOK, RegisterResponse{
			HeartbeatMillis: c.opts.HeartbeatInterval.Milliseconds(),
		})
	})

	mux.HandleFunc("POST /v1/cluster/nodes/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var hb Heartbeat
		if err := json.NewDecoder(r.Body).Decode(&hb); err != nil {
			clusterError(w, http.StatusBadRequest, fmt.Errorf("cluster: decode heartbeat: %w", err))
			return
		}
		if err := c.heartbeat(&hb); err != nil {
			// Unknown node: tell it to re-register (coordinator restart).
			clusterError(w, http.StatusConflict, err)
			return
		}
		clusterJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})

	mux.HandleFunc("POST /v1/cluster/checkpoint", func(w http.ResponseWriter, r *http.Request) {
		var p CheckpointPush
		if err := json.NewDecoder(r.Body).Decode(&p); err != nil {
			clusterError(w, http.StatusBadRequest, fmt.Errorf("cluster: decode checkpoint push: %w", err))
			return
		}
		c.checkpointPush(&p)
		clusterJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})

	mux.HandleFunc("GET /v1/cluster/nodes", func(w http.ResponseWriter, r *http.Request) {
		c.mu.Lock()
		ids := make([]string, 0, len(c.nodes))
		for id := range c.nodes {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		out := make([]NodeStatus, 0, len(ids))
		for _, id := range ids {
			out = append(out, c.nodeStatusLocked(c.nodes[id]))
		}
		c.mu.Unlock()
		clusterJSON(w, http.StatusOK, map[string]any{"nodes": out})
	})

	mux.HandleFunc("POST /v1/cluster/nodes/{id}/drain", func(w http.ResponseWriter, r *http.Request) {
		moved, stuck, err := c.DrainNode(r.PathValue("id"))
		if err != nil {
			clusterError(w, http.StatusNotFound, err)
			return
		}
		clusterJSON(w, http.StatusOK, map[string]any{"moved": moved, "stuck": stuck})
	})

	mux.HandleFunc("DELETE /v1/cluster/nodes/{id}", func(w http.ResponseWriter, r *http.Request) {
		c.Deregister(r.PathValue("id"))
		w.WriteHeader(http.StatusNoContent)
	})

	// Sessions.
	mux.HandleFunc("POST /v1/cluster/sessions", func(w http.ResponseWriter, r *http.Request) {
		var req server.CreateRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			clusterError(w, http.StatusBadRequest, fmt.Errorf("cluster: decode request: %w", err))
			return
		}
		st, err := c.CreateSession(&req)
		if err != nil {
			code := http.StatusBadRequest
			if strings.Contains(err.Error(), "no eligible node") {
				code = http.StatusTooManyRequests
			}
			clusterError(w, code, err)
			return
		}
		clusterJSON(w, http.StatusCreated, st)
	})

	mux.HandleFunc("GET /v1/cluster/sessions", func(w http.ResponseWriter, r *http.Request) {
		c.mu.Lock()
		ids := make([]string, 0, len(c.recs))
		for id := range c.recs {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		out := make([]SessionStatus, 0, len(ids))
		for _, id := range ids {
			out = append(out, c.recs[id].statusLocked())
		}
		c.mu.Unlock()
		clusterJSON(w, http.StatusOK, map[string]any{"sessions": out})
	})

	withRec := func(fn func(http.ResponseWriter, *http.Request, *rec)) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			rc, err := c.getRec(r.PathValue("id"))
			if err != nil {
				clusterError(w, http.StatusNotFound, err)
				return
			}
			fn(w, r, rc)
		}
	}

	mux.HandleFunc("GET /v1/cluster/sessions/{id}", withRec(func(w http.ResponseWriter, r *http.Request, rc *rec) {
		clusterJSON(w, http.StatusOK, c.status(rc))
	}))

	mux.HandleFunc("POST /v1/cluster/sessions/{id}/migrate", withRec(func(w http.ResponseWriter, r *http.Request, rc *rec) {
		var req MigrateRequest
		if r.ContentLength != 0 {
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				clusterError(w, http.StatusBadRequest, fmt.Errorf("cluster: decode migrate: %w", err))
				return
			}
		}
		st, err := c.Migrate(rc.clusterID, req.Target)
		if err != nil {
			clusterError(w, http.StatusConflict, err)
			return
		}
		clusterJSON(w, http.StatusOK, st)
	}))

	lifecycle := func(verb string) http.HandlerFunc {
		return withRec(func(w http.ResponseWriter, r *http.Request, rc *rec) {
			nc, id, err := c.ownerClient(rc)
			if err != nil {
				clusterError(w, http.StatusConflict, err)
				return
			}
			if verb == "resume" {
				// Spikes injected through the proxy while the session was
				// parked must land before any tick fires, exactly as they
				// would on a directly-driven daemon; resuming under an
				// un-drained journal would deliver them late. The client's
				// stream frames and this request race over separate
				// connections, so first wait for the proxy to journal the
				// client's cumulative sent count (the step protocol's
				// inject barrier), then for the owner to consume it.
				var req server.ResumeRequest
				if err := json.NewDecoder(r.Body).Decode(&req); err != nil && !errors.Is(err, io.EOF) {
					clusterError(w, http.StatusBadRequest, fmt.Errorf("cluster: decode resume: %w", err))
					return
				}
				if err := c.awaitJournaled(rc, req.MinInjected, 30*time.Second); err != nil {
					clusterError(w, http.StatusGatewayTimeout, err)
					return
				}
				c.awaitInjectSync(rc, 5*time.Second)
			}
			info, err := nc.lifecycle(id, verb)
			if err != nil {
				clusterError(w, http.StatusConflict, err)
				return
			}
			c.mu.Lock()
			switch verb {
			case "pause":
				rc.userPaused = true
			case "resume":
				rc.userPaused = false
			}
			st := rc.statusLocked()
			c.mu.Unlock()
			st.Info = info
			clusterJSON(w, http.StatusOK, st)
		})
	}
	mux.HandleFunc("POST /v1/cluster/sessions/{id}/pause", lifecycle("pause"))
	mux.HandleFunc("POST /v1/cluster/sessions/{id}/resume", lifecycle("resume"))
	mux.HandleFunc("POST /v1/cluster/sessions/{id}/stop", lifecycle("stop"))

	mux.HandleFunc("POST /v1/cluster/sessions/{id}/step", withRec(func(w http.ResponseWriter, r *http.Request, rc *rec) {
		var req server.StepRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			clusterError(w, http.StatusBadRequest, fmt.Errorf("cluster: decode step: %w", err))
			return
		}
		nc, id, err := c.ownerClient(rc)
		if err != nil {
			clusterError(w, http.StatusConflict, err)
			return
		}
		// Same ordering contract as resume: every spike injected through
		// the proxy before the step must reach the owner before the ticks
		// it grants can fire.
		c.awaitInjectSync(rc, 5*time.Second)
		info, err := nc.step(id, &req)
		if err != nil {
			clusterError(w, http.StatusConflict, err)
			return
		}
		c.mu.Lock()
		st := rc.statusLocked()
		c.mu.Unlock()
		st.Info = info
		clusterJSON(w, http.StatusOK, st)
	}))

	mux.HandleFunc("POST /v1/cluster/sessions/{id}/scenario-report", withRec(func(w http.ResponseWriter, r *http.Request, rc *rec) {
		var req server.ScenarioReportRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			clusterError(w, http.StatusBadRequest, fmt.Errorf("cluster: decode scenario report: %w", err))
			return
		}
		nc, id, err := c.ownerClient(rc)
		if err != nil {
			clusterError(w, http.StatusConflict, err)
			return
		}
		info, err := nc.scenarioReport(id, &req)
		if err != nil {
			clusterError(w, http.StatusConflict, err)
			return
		}
		c.mu.Lock()
		st := rc.statusLocked()
		c.mu.Unlock()
		st.Info = info
		clusterJSON(w, http.StatusOK, st)
	}))

	mux.HandleFunc("GET /v1/cluster/sessions/{id}/checkpoint", withRec(func(w http.ResponseWriter, r *http.Request, rc *rec) {
		nc, id, err := c.ownerClient(rc)
		if err != nil {
			clusterError(w, http.StatusConflict, err)
			return
		}
		raw, err := nc.checkpoint(id)
		if err != nil {
			clusterError(w, http.StatusConflict, err)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(raw)
	}))

	mux.HandleFunc("DELETE /v1/cluster/sessions/{id}", withRec(func(w http.ResponseWriter, r *http.Request, rc *rec) {
		if nc, id, err := c.ownerClient(rc); err == nil {
			if err := nc.deleteSession(id); err != nil {
				c.logf("delete %s: owner cleanup failed: %v", rc.clusterID, err)
			}
		}
		c.endSession(rc, "cancelled", "deleted via cluster API")
		c.mu.Lock()
		delete(c.recs, rc.clusterID)
		c.mu.Unlock()
		w.WriteHeader(http.StatusNoContent)
	}))

	return mux
}
