package server

import (
	"bytes"
	"encoding/base64"
	"errors"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	sim "github.com/cognitive-sim/compass/internal/compass"
	"github.com/cognitive-sim/compass/internal/coreobject"
	"github.com/cognitive-sim/compass/internal/truenorth"
)

// postSession creates one session through the control-plane client
// and returns its Info.
func postSession(cl *Client, body map[string]any) (Info, error) {
	var info Info
	err := cl.Do(http.MethodPost, "/v1/sessions", body, &info)
	return info, err
}

// waitDone polls a session until it reaches the done state.
func waitDone(t *testing.T, cl *Client, id string) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		cur, err := cl.Info(id)
		if err != nil {
			t.Fatal(err)
		}
		switch cur.State {
		case "done":
			return
		case "failed", "cancelled":
			t.Fatalf("session %s ended %s: %s", id, cur.State, cur.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("session %s did not finish", id)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestModelCacheSingleflight is the admission dedup guard: N concurrent
// HTTP creates naming the same model source compile exactly once, every
// session runs to completion, and all N share one image (one hash, and
// the manager charges the image bytes once).
func TestModelCacheSingleflight(t *testing.T) {
	srv := startTestServer(t, ManagerOptions{CapacitySecondsPerTick: 1e9, ChunkTicks: 10})
	cl := NewClient(srv.HTTPAddr(), 60*time.Second)

	m := testModel(4, 91)
	var mbuf bytes.Buffer
	if err := coreobject.WriteModel(&mbuf, m); err != nil {
		t.Fatal(err)
	}
	src := map[string]any{"kind": "model", "model_base64": base64.StdEncoding.EncodeToString(mbuf.Bytes())}

	const n = 8
	var wg sync.WaitGroup
	infos := make([]Info, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			info, err := postSession(cl, map[string]any{
				"source": src, "ranks": 2, "threads": 2, "transport": "shmem", "ticks": 20,
			})
			if err != nil {
				t.Errorf("create %d: %v", i, err)
				return
			}
			infos[i] = info
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i := 0; i < n; i++ {
		waitDone(t, cl, infos[i].ID)
	}

	st := srv.Manager().ModelCache().Stats()
	if st.Misses != 1 {
		t.Fatalf("model compiled %d times under %d concurrent creates, want 1", st.Misses, n)
	}
	if st.Hits != n-1 {
		t.Fatalf("cache hits %d, want %d", st.Hits, n-1)
	}
	for i := 1; i < n; i++ {
		if infos[i].ModelHash != infos[0].ModelHash {
			t.Fatalf("session %d reports hash %s, session 0 reports %s", i, infos[i].ModelHash, infos[0].ModelHash)
		}
	}
	if len(infos[0].ModelHash) != 64 {
		t.Fatalf("model_hash %q is not hex sha256", infos[0].ModelHash)
	}

	// The cache counters are on /metrics.
	var text []byte
	if err := cl.Do(http.MethodGet, "/metrics", nil, &text); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"compassd_model_cache_hits",
		"compassd_model_cache_misses",
		"compassd_model_cache_evictions",
		"compassd_model_cache_resident_bytes",
	} {
		if !strings.Contains(string(text), name) {
			t.Fatalf("metrics missing %s:\n%s", name, text)
		}
	}
}

// TestSpecSourceCached: two sequential creates from the same inline
// CoreObject spec hit the cache the second time — admission of a cached
// compiled model does not recompile.
func TestSpecSourceCached(t *testing.T) {
	srv := startTestServer(t, ManagerOptions{CapacitySecondsPerTick: 1e9, ChunkTicks: 10})
	cl := NewClient(srv.HTTPAddr(), 60*time.Second)
	spec := map[string]any{
		"seed": 7,
		"regions": []map[string]any{{
			"name": "r", "cores": 4, "gray_fraction": 1.0,
			"proto": map[string]any{
				"weights":       []int{1, 1, 1, 1},
				"threshold_min": 1, "threshold_max": 3,
				"delay_min": 1, "delay_max": 2,
				"synapse_density": 0.1,
			},
		}},
	}
	body := map[string]any{
		"source": map[string]any{"kind": "spec", "spec": spec},
		"ticks":  10,
	}
	a, err := postSession(cl, body)
	if err != nil {
		t.Fatalf("first create: %v", err)
	}
	b, err := postSession(cl, body)
	if err != nil {
		t.Fatalf("second create: %v", err)
	}
	st := srv.Manager().ModelCache().Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("cache hits=%d misses=%d, want 1/1", st.Hits, st.Misses)
	}
	if a.ModelHash != b.ModelHash {
		t.Fatalf("hashes differ across cached creates: %s vs %s", a.ModelHash, b.ModelHash)
	}
	waitDone(t, cl, a.ID)
	waitDone(t, cl, b.ID)
}

// TestMemoryAdmissionSharedImage is the double-counting regression: a
// shared image is charged once no matter how many sessions hold it, so
// two shared-image sessions fit a budget that two private copies of the
// same model exceed (the second private session queues), and a session
// that could never fit is rejected outright (the HTTP 429 path).
func TestMemoryAdmissionSharedImage(t *testing.T) {
	m := testModel(4, 55)
	img, err := truenorth.NewImage(m)
	if err != nil {
		t.Fatal(err)
	}
	ib, sb := img.ImageBytes(), img.StateBytes()
	// Budget: one image plus several states, but well short of two images.
	budget := ib + 8*sb
	if budget >= 2*(ib+sb) {
		t.Fatalf("test geometry broken: budget %d does not separate shared from private (image %d, state %d)", budget, ib, sb)
	}
	cfg := sim.Config{Ranks: 1, ThreadsPerRank: 1, Transport: sim.TransportShmem}

	t.Run("shared image charged once", func(t *testing.T) {
		mgr := NewManager(ManagerOptions{CapacitySecondsPerTick: 1e9, MemoryBudgetBytes: budget, ChunkTicks: 5})
		a, err := mgr.Create(CreateParams{Image: img, Cfg: cfg, Ticks: 1 << 40, StartPaused: true})
		if err != nil {
			t.Fatal(err)
		}
		b, err := mgr.Create(CreateParams{Image: img, Cfg: cfg, Ticks: 1 << 40, StartPaused: true})
		if err != nil {
			t.Fatal(err)
		}
		if running, queued, _ := mgr.Counts(); running != 2 || queued != 0 {
			t.Fatalf("shared sessions: running=%d queued=%d, want 2/0", running, queued)
		}
		if got, want := mgr.MemoryUsed(), ib+2*sb; got != want {
			t.Fatalf("memory charged %d bytes for two shared sessions, want image once + two states = %d", got, want)
		}
		mgr.Stop(a.ID)
		mgr.Stop(b.ID)
		a.Wait()
		b.Wait()
		if got := mgr.MemoryUsed(); got != 0 {
			t.Fatalf("memory not refunded after exit: %d bytes", got)
		}
	})

	t.Run("private copies queue", func(t *testing.T) {
		mgr := NewManager(ManagerOptions{CapacitySecondsPerTick: 1e9, MemoryBudgetBytes: budget, ChunkTicks: 5})
		a, err := mgr.Create(CreateParams{Model: m, Cfg: cfg, Ticks: 1 << 40, StartPaused: true})
		if err != nil {
			t.Fatal(err)
		}
		b, err := mgr.Create(CreateParams{Model: testModel(4, 55), Cfg: cfg, Ticks: 10})
		if err != nil {
			t.Fatal(err)
		}
		if running, queued, _ := mgr.Counts(); running != 1 || queued != 1 {
			t.Fatalf("private sessions: running=%d queued=%d, want 1/1", running, queued)
		}
		// Freeing the first session's memory promotes the queued one.
		mgr.Stop(a.ID)
		a.Wait()
		if !b.WaitState(30*time.Second, func(st State) bool { return st == StateDone }) {
			t.Fatalf("queued private session never promoted; state %s", b.State())
		}
	})

	t.Run("never fits rejects", func(t *testing.T) {
		mgr := NewManager(ManagerOptions{CapacitySecondsPerTick: 1e9, MemoryBudgetBytes: ib / 2, ChunkTicks: 5})
		if _, err := mgr.Create(CreateParams{Image: img, Cfg: cfg, Ticks: 10}); !errors.Is(err, ErrOverCapacity) {
			t.Fatalf("oversized session error = %v, want ErrOverCapacity", err)
		}
	})
}
