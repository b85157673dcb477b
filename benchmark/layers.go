package main

import "fmt"

// Per-layer metric groups shared by the workloads. Each workload sets
// the metrics of the layers it loads and marks the rest absent with the
// reason; layers.json maps every metric to the end-to-end metric it
// should move.

// phaseNames are the engine metrics read from compass_phase_seconds and
// the Synapse dispatch counters.
var phaseNames = []string{
	"compass.synapse_s", "compass.neuron_s", "compass.network_s",
	"compass.net_send_s", "compass.net_barrier_s", "compass.net_drain_s",
	"compass.network_p99_us", "truenorth.kernel_dispatch_frac",
}

// workNames are the exact work counts of the simulation.
var workNames = []string{
	"truenorth.synaptic_events", "compass.spikes", "compass.remote_spike_frac",
	"mpi.messages", "mpi.wire_bytes", "compass.quiescent_frac",
}

// setupNames are the set-up layers cocomac_run times.
var setupNames = []string{"cocomac.generate_s", "pcc.compile_s", "truenorth.image_s"}

// serverLayer are the daemon's metrics: admission, cache, batching,
// and the stream plane.
var serverLayer = []string{
	"server.create_ms_p50", "server.create_ms_max",
	"modelcache.hits", "modelcache.misses",
	"server.batch_windows", "server.batch_sweep_us_p50", "server.batch_sweep_us_p99", "server.batch_lanes_mean",
	"compass.batch_run_s", "compass.solo_run_s", "server.overhead_frac",
}

// scenarioLayer are the closed-loop step's round trip, its stages as
// the traced scenario step loop times them, and the daemon's stream-plane
// figures.
var scenarioLayer = []string{
	"scenario.step_rtt_p50_ms", "scenario.step_rtt_p99_ms",
	"server.stream_rtt_p50_us", "server.stream_rtt_p99_us", "server.stream_dropped_records",
	"scenario.encode_us_p50", "scenario.encode_us_p99",
	"server.stream_send_us_p50", "server.stream_send_us_p99",
	"server.step_http_us_p50", "server.step_http_us_p99",
	"server.egress_wait_us_p50", "server.egress_wait_us_p99",
	"spikecode.decode_us_p50", "spikecode.decode_us_p99",
}

// selfLayers are the layers self time is reported for; a span's layer
// is its name's prefix.
var selfLayers = []string{"bench", "cocomac", "pcc", "truenorth", "compass", "server", "scenario", "spikecode"}

var phases = []string{"synapse", "neuron", "network", "net_send", "net_barrier", "net_drain"}

// phaseLayer reads the engine's Fig. 4a breakdown from an exposition:
// the compass_phase_seconds sum of every phase over ranks and ticks, the
// per-rank-tick Network p99, and the kernel share of Synapse dispatches.
// Batched runs observe no phase histograms, so the phase figures are
// left out when no phase was observed.
func phaseLayer(p promSet, into map[string]float64) {
	kernel := p.sum("compass_synapse_dispatch_total", map[string]string{"path": "kernel"})
	scalar := p.sum("compass_synapse_dispatch_total", map[string]string{"path": "scalar"})
	if kernel+scalar > 0 {
		into["truenorth.kernel_dispatch_frac"] = kernel / (kernel + scalar)
	}
	if p.sum("compass_phase_seconds_count", nil) == 0 {
		return
	}
	for _, ph := range phases {
		_, _, sum := p.hist("compass_phase_seconds", map[string]string{"phase": ph})
		into["compass."+ph+"_s"] = sum
	}
	b, n, _ := p.hist("compass_phase_seconds", map[string]string{"phase": "network"})
	if v, ok := histQuantile(b, n, 0.99); ok {
		into["compass.network_p99_us"] = v * 1e6
	}
}

// setMedians reports, for every name, the median of the values the
// per-cycle maps hold for it.
func setMedians(r *report, cycles []map[string]float64, names []string, what string) {
	for _, name := range names {
		var xs []float64
		for _, l := range cycles {
			if v, ok := l[name]; ok {
				xs = append(xs, v)
			}
		}
		if len(xs) > 0 {
			r.set(name, median(xs))
			r.note(name, "median over %d %s", len(xs), what)
		}
	}
}

// setOverhead reports the tracing overhead: the traced minus the
// untraced ticks_per_s, from alternating traced and untraced cycles of
// the same run.
func setOverhead(r *report, plain, traced []float64) {
	u, t := median(plain), median(traced)
	r.set("bench.ticks_per_s_untraced", u)
	r.set("bench.ticks_per_s_traced", t)
	r.set("bench.trace_overhead_ticks_per_s", t-u)
	if u > 0 {
		r.set("bench.trace_overhead_frac", (u-t)/u)
	}
	r.note("bench.trace_overhead_ticks_per_s", "median of %d traced minus median of %d untraced cycles", len(traced), len(plain))
}

// setSelfTimes reports every layer's summed self time over the run.
func setSelfTimes(r *report, spans []span) {
	self := selfTimes(spans)
	for _, l := range selfLayers {
		r.set("self."+l+"_s", self[l].Seconds())
	}
}

// setStagePercentiles reports p50 and p99 in microseconds of every span
// named by stage, under the metric names <metric>_p50 and <metric>_p99.
func setStagePercentiles(r *report, spans []span, stage, metric string) {
	xs := durations(spans, stage)
	if len(xs) == 0 {
		return
	}
	r.set(metric+"_p50", median(xs)*1e6)
	v, q, _ := tail(xs)
	r.set(metric+"_p99", v*1e6)
	r.note(metric+"_p99", "p%.4g of %d %s spans", q*100, len(xs), stage)
}

// daemonLayer reads the daemon's admission, cache, batching and stream
// figures from one /metrics scrape.
func daemonLayer(p promSet, l map[string]float64) {
	l["modelcache.hits"] = p.sum("compassd_model_cache_hits", nil)
	l["modelcache.misses"] = p.sum("compassd_model_cache_misses", nil)
	l["server.batch_windows"] = p.sum("compassd_batch_sweep_seconds_count", nil)
	set := func(name, hist string, q float64) {
		b, n, _ := p.hist(hist, nil)
		if v, ok := histQuantile(b, n, q); ok {
			l[name] = v * 1e6
		}
	}
	set("server.batch_sweep_us_p50", "compassd_batch_sweep_seconds", 0.5)
	set("server.batch_sweep_us_p99", "compassd_batch_sweep_seconds", 0.99)
	set("server.stream_rtt_p50_us", "compassd_stream_rtt_seconds", 0.5)
	set("server.stream_rtt_p99_us", "compassd_stream_rtt_seconds", 0.99)
	if p.has("compassd_stream_dropped_records_total", nil) {
		l["server.stream_dropped_records"] = p.sum("compassd_stream_dropped_records_total", nil)
	}
}

// daemonNames are the metrics daemonLayer can set.
var daemonNames = []string{
	"modelcache.hits", "modelcache.misses", "server.batch_windows",
	"server.batch_sweep_us_p50", "server.batch_sweep_us_p99",
	"server.stream_rtt_p50_us", "server.stream_rtt_p99_us", "server.stream_dropped_records",
}

// streamNames are the stream-plane figures of the daemon's /metrics.
var streamNames = []string{"server.stream_rtt_p50_us", "server.stream_rtt_p99_us", "server.stream_dropped_records"}

// latencyTailQ is the quantile the end-to-end tail latency reports, and
// minLatencySamples the sample count every run of every workload
// reaches, which leaves ten samples beyond it. The quantile is fixed so
// that every run reports the same one however many operations fit into
// its measuring time.
const (
	latencyTailQ      = 0.90
	minLatencySamples = 100
)

// setLatency reports the operation latency pair: the median and the
// fixed tail quantile.
func setLatency(r *report, secs []float64, op string, args ...any) {
	what := fmt.Sprintf(op, args...)
	r.set("latency_p50_ms", median(secs)*1e3)
	r.note("latency_p50_ms", "median of %d %s", len(secs), what)
	r.set("latency_p90_ms", percentile(secs, latencyTailQ)*1e3)
	r.note("latency_p90_ms", "nearest-rank p90 of %d %s", len(secs), what)
}
