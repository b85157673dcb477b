package main

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"github.com/cognitive-sim/compass/internal/compass"
	"github.com/cognitive-sim/compass/internal/coreobject"
	"github.com/cognitive-sim/compass/internal/server"
	"github.com/cognitive-sim/compass/internal/truenorth"
)

// The serve_fleet workload is the daemon's default multi-tenant path:
// a fresh in-process daemon on defaults (batching on) receives one
// burst of fleetSessions creates of the same CoCoMac model (128 cores,
// 2 ranks, 1 thread, shmem) from fleetClients goroutines, then one
// goroutine polls the session list on one connection until every
// session is done. The daemon builds the image once and serves the
// other creates from its model cache, then sweeps all sessions as lanes
// of one batched loop. The model is uploaded in the binary format so
// the seed can draw its stimulus; the network is the seed-2012 one.
const (
	fleetSessions = 8
	fleetClients  = 2
	fleetCores    = 128
	fleetRanks    = 2
	fleetTicks    = 500
	// minFleets fleets give the latency tail its minimum sample.
	minFleets = (minLatencySamples + fleetSessions - 1) / fleetSessions
	pollEvery = 5 * time.Millisecond
	// sampleEvery spaces the traced poller's /metrics scrapes: a scrape
	// renders every session's telemetry, and doing it every poll would
	// slow the fleet it measures.
	sampleEvery  = 25 * time.Millisecond
	fleetTimeout = 120 * time.Second
)

// fleetInput is what every fleet of a run sends and must get back.
type fleetInput struct {
	img  *truenorth.Image
	cfg  compass.Config
	body []byte // the JSON create request
	want server.Totals
	hash string
}

// prepareFleet builds the model, encodes the create request, and runs
// one solo RunImage of the same image as the reference every session's
// totals must equal.
func prepareFleet(seed uint64) (*fleetInput, error) {
	m, err := buildCocomac(seed, fleetCores, fleetRanks, fleetTicks, nil, 0, 0)
	if err != nil {
		return nil, err
	}
	var model bytes.Buffer
	if err := coreobject.WriteModel(&model, m.res.Model); err != nil {
		return nil, fmt.Errorf("encode model: %w", err)
	}
	body, err := json.Marshal(server.CreateRequest{
		Source:    server.SourceSpec{Kind: "model", ModelBase64: base64.StdEncoding.EncodeToString(model.Bytes())},
		Ranks:     fleetRanks,
		Threads:   1,
		Transport: "shmem",
		Ticks:     fleetTicks,
	})
	if err != nil {
		return nil, err
	}
	// Binary models carry no placement, so the daemon splits cores into
	// contiguous blocks; the reference does the same.
	cfg := compass.Config{Ranks: fleetRanks, ThreadsPerRank: 1, Transport: compass.TransportShmem}
	st, err := compass.RunImage(m.img, cfg, fleetTicks)
	if err != nil {
		return nil, fmt.Errorf("solo reference: %w", err)
	}
	in := &fleetInput{img: m.img, cfg: cfg, body: body, hash: m.img.Hash(), want: soloTotals(st)}
	return in, nil
}

// soloTotals is a run's stats in the daemon's session-totals shape.
func soloTotals(st *compass.RunStats) server.Totals {
	t := server.Totals{Spikes: st.TotalSpikes, Messages: st.Messages, DroppedInputs: st.DroppedInputs}
	for _, rs := range st.PerRank {
		t.Firings += rs.Firings
	}
	return t
}

// fleetResult is one fleet's timings.
type fleetResult struct {
	setup    float64   // daemon start until every create has returned
	makespan float64   // first create sent until every session is done
	lat      []float64 // per session: create sent until seen done
	creates  []float64 // per create request
	heap     float64   // live heap at the end of set-up, when asked for
	lanes    []float64 // traced: batch occupancy sampled while sessions run
	prom     promSet   // traced: /metrics once every session is done
}

// runFleet starts a daemon, sends the burst, polls to completion,
// checks every session against the reference, and shuts the daemon
// down. Session failures count against the report; failures of the
// harness itself (a daemon that will not start) are returned.
func runFleet(in *fleetInput, run int, rec *recorder, heap bool, r *report) (*fleetResult, error) {
	root := rec.begin("bench.fleet", 0, run, 0)
	defer rec.end(root)
	out := &fleetResult{}
	t0 := time.Now()
	id := rec.begin("server.start", root, run, 0)
	srv, err := startDaemon()
	rec.end(id)
	if err != nil {
		return nil, err
	}
	defer func() {
		id := rec.begin("server.shutdown", root, run, 0)
		stopDaemon(srv)
		rec.end(id)
	}()
	hc := &http.Client{Timeout: fleetTimeout, Transport: &http.Transport{MaxConnsPerHost: fleetClients, MaxIdleConnsPerHost: fleetClients}}
	defer hc.CloseIdleConnections()
	base := "http://" + srv.HTTPAddr()

	r.attempted += fleetSessions
	ids := make([]string, fleetSessions)
	sent := make([]time.Time, fleetSessions)
	out.creates = make([]float64, fleetSessions)
	var wg sync.WaitGroup
	for g := 0; g < fleetClients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < fleetSessions; i += fleetClients {
				id := rec.begin("server.create", root, run, g+1)
				sent[i] = time.Now()
				ids[i] = create(hc, base, in.body)
				out.creates[i] = time.Since(sent[i]).Seconds()
				rec.end(id)
			}
		}(g)
	}
	wg.Wait()
	admitted := time.Now()
	out.setup = admitted.Sub(t0).Seconds()
	if heap {
		out.heap = liveHeap()
	}

	doneAt := map[string]time.Time{}
	final := map[string]server.Info{}
	pending := 0
	for _, sid := range ids {
		if sid != "" {
			pending++
		}
	}
	id = rec.begin("server.poll", root, run, 0)
	deadline := time.Now().Add(fleetTimeout)
	var sampled time.Time
	for len(doneAt) < pending && time.Now().Before(deadline) {
		infos, err := listSessions(hc, base)
		if err != nil {
			rec.end(id)
			return nil, err
		}
		now := time.Now()
		for _, info := range infos {
			if _, seen := doneAt[info.ID]; seen {
				continue
			}
			switch info.State {
			case "done", "failed", "cancelled", "drained":
				doneAt[info.ID] = now
				final[info.ID] = info
			}
		}
		if rec != nil && now.Sub(sampled) >= sampleEvery {
			sampled = now
			p, err := scrape(hc, srv.HTTPAddr())
			if err != nil {
				rec.end(id)
				return nil, err
			}
			out.lanes = append(out.lanes, p.sum("compassd_batch_occupancy", nil))
		}
		time.Sleep(pollEvery)
	}
	rec.end(id)

	var last time.Time
	for i, sid := range ids {
		info, ok := final[sid]
		switch {
		case sid == "":
			r.check(false, "fleet session vs solo RunImage", "fleet %d create %d refused", run, i)
			continue
		case !ok:
			r.check(false, "fleet session vs solo RunImage", "fleet %d session %s unfinished after %v", run, sid, fleetTimeout)
			continue
		}
		if doneAt[sid].After(last) {
			last = doneAt[sid]
		}
		out.lat = append(out.lat, doneAt[sid].Sub(sent[i]).Seconds())
		checkSession(r, run, info, in)
	}
	// Sessions start simulating as their creates return, so the window
	// that holds every tick opens when the first create is sent.
	first := sent[0]
	for _, t := range sent {
		if t.Before(first) {
			first = t
		}
	}
	out.makespan = last.Sub(first).Seconds()
	if rec != nil {
		if out.prom, err = scrape(hc, srv.HTTPAddr()); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// checkSession compares one finished session with the solo reference:
// it must be done, with the same totals, on the same image.
func checkSession(r *report, run int, info server.Info, in *fleetInput) {
	r.check(info.State == "done" && info.Totals == in.want && info.ModelHash == in.hash, "fleet session vs solo RunImage",
		"fleet %d session %s: %s totals %+v hash %.12s, solo %+v hash %.12s",
		run, info.ID, info.State, info.Totals, info.ModelHash, in.want, in.hash)
}

// create posts one create request and returns the session ID, or ""
// when the daemon refused it.
func create(hc *http.Client, base string, body []byte) string {
	resp, err := hc.Post(base+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		return ""
	}
	defer resp.Body.Close()
	var info server.Info
	if resp.StatusCode != http.StatusCreated || json.NewDecoder(resp.Body).Decode(&info) != nil {
		return ""
	}
	return info.ID
}

func listSessions(hc *http.Client, base string) ([]server.Info, error) {
	resp, err := hc.Get(base + "/v1/sessions")
	if err != nil {
		return nil, fmt.Errorf("list sessions: %w", err)
	}
	defer resp.Body.Close()
	var body struct {
		Sessions []server.Info `json:"sessions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, fmt.Errorf("list sessions: %w", err)
	}
	return body.Sessions, nil
}

func measureFleet(c *runCtx) error {
	in, err := prepareFleet(c.seed)
	if err != nil {
		return err
	}
	// The first fleet warms the process; its figures are not used.
	if _, err := runFleet(in, 0, nil, false, c.rep); err != nil {
		return err
	}
	var setups, heaps, rates, lat []float64
	err = loop(c.seconds, minFleets, func(i int) error {
		f, err := runFleet(in, i+1, nil, true, c.rep)
		if err != nil {
			return err
		}
		setups = append(setups, f.setup)
		heaps = append(heaps, f.heap)
		if f.makespan > 0 {
			rates = append(rates, fleetSessions*fleetTicks/f.makespan)
		}
		lat = append(lat, f.lat...)
		return nil
	})
	if err != nil {
		return err
	}
	c.rep.set("setup_s", median(setups))
	c.rep.note("setup_s", "median of %d fleets: daemon start and %d creates", len(setups), fleetSessions)
	c.rep.set("heap_live_bytes", median(heaps))
	c.rep.note("heap_live_bytes", "median of %d fleets, each once its creates returned", len(heaps))
	c.rep.set("ticks_per_s", median(rates))
	c.rep.note("ticks_per_s", "median of %d fleets (range %.4g-%.4g): %d sessions of %d ticks over the makespan from the first create sent", len(rates), minOf(rates), maxOf(rates), fleetSessions, fleetTicks)
	setLatency(c.rep, lat, "sessions, create sent to seen done")
	return nil
}

func tracedFleet(c *runCtx) error {
	in, err := prepareFleet(c.seed)
	if err != nil {
		return err
	}
	if _, err := runFleet(in, 0, nil, false, c.rep); err != nil {
		return err
	}
	var plain, traced, creates, makespans []float64
	var cycles []map[string]float64
	// Half the time goes to fleets, a quarter to the scenario cycles
	// below; the bare-engine comparison takes about three fleets' time.
	err = loop(c.seconds/2, 4, func(i int) error {
		var rec *recorder
		if i%2 == 1 {
			rec = c.rec
		}
		f, err := runFleet(in, i+1, rec, false, c.rep)
		if err != nil {
			return err
		}
		rate := fleetSessions * fleetTicks / f.makespan
		if rec == nil {
			plain = append(plain, rate)
			return nil
		}
		traced = append(traced, rate)
		creates = append(creates, f.creates...)
		makespans = append(makespans, f.makespan)
		l := map[string]float64{}
		daemonLayer(f.prom, l)
		var busy []float64
		for _, v := range f.lanes {
			if v > 0 {
				busy = append(busy, v)
			}
		}
		if len(busy) > 0 {
			l["server.batch_lanes_mean"] = mean(busy)
		}
		phaseLayer(f.prom, l)
		cycles = append(cycles, l)
		return nil
	})
	if err != nil {
		return err
	}
	setMedians(c.rep, cycles, append(daemonNames, "server.batch_lanes_mean"), "traced fleets")
	setMedians(c.rep, cycles, phaseNames, "traced fleets")
	c.rep.set("server.create_ms_p50", median(creates)*1e3)
	c.rep.set("server.create_ms_max", maxOf(creates)*1e3)
	c.rep.note("server.create_ms_max", "over %d creates", len(creates))
	c.rep.set("truenorth.image_bytes", float64(in.img.ImageBytes()))
	c.rep.set("truenorth.state_bytes", float64(in.img.StateBytes()*fleetSessions))
	c.rep.note("truenorth.state_bytes", "all %d sessions", fleetSessions)

	batch, solo, err := bareEngine(in, c.rep)
	if err != nil {
		return err
	}
	c.rep.set("compass.batch_run_s", batch)
	c.rep.set("compass.solo_run_s", solo)
	c.rep.set("server.overhead_frac", 1-batch/median(makespans))
	c.rep.note("server.overhead_frac", "1 - compass.batch_run_s / median makespan (first create sent to last done) of %d traced fleets", len(makespans))

	// The closed-loop step stages: the scenario step loop against its
	// own daemon (see loop.go and layers.json).
	if err := measureLoopLayers(c, c.seconds/4); err != nil {
		return err
	}
	setOverhead(c.rep, plain, traced)
	setSelfTimes(c.rep, c.rec.snapshot())
	c.rep.markAbsent("batched sessions observe no phase histograms (RunBatch rejects MeasurePhases)", phaseNames...)
	c.rep.markAbsent("work counts are read from RunStats on cocomac_run; here each session is checked against a solo run", workNames...)
	c.rep.markAbsent("the model is compiled client-side before the daemon starts; cocomac_run times it", setupNames...)
	return nil
}

// bareEngineReps is how many times each bare-engine variant runs.
const bareEngineReps = 2

// bareEngine times the fleet's work without the daemon: one bare
// RunBatch of fleetSessions lanes and fleetSessions concurrent bare
// RunImage calls, alternating, and reports each one's median. Every
// lane must match the solo reference.
func bareEngine(in *fleetInput, r *report) (batch, solo float64, err error) {
	var bs, ss []float64
	for rep := 0; rep < bareEngineReps; rep++ {
		t0 := time.Now()
		res, err := compass.RunBatch(in.img, in.cfg, fleetTicks, make([]compass.BatchLane, fleetSessions))
		if err != nil {
			return 0, 0, fmt.Errorf("bare RunBatch: %w", err)
		}
		bs = append(bs, time.Since(t0).Seconds())
		for lane, st := range res.Lanes {
			r.check(soloTotals(st) == in.want, "bare RunBatch lane vs solo RunImage", "lane %d totals %+v, solo %+v", lane, soloTotals(st), in.want)
		}

		t0 = time.Now()
		var wg sync.WaitGroup
		errs := make([]error, fleetSessions)
		for i := 0; i < fleetSessions; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				_, errs[i] = compass.RunImage(in.img, in.cfg, fleetTicks)
			}(i)
		}
		wg.Wait()
		ss = append(ss, time.Since(t0).Seconds())
		for _, err := range errs {
			if err != nil {
				return 0, 0, fmt.Errorf("bare RunImage: %w", err)
			}
		}
	}
	return median(bs), median(ss), nil
}
