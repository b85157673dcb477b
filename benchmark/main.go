// Command benchmark is the repository's benchmark: it runs one workload
// against the public Go API (the daemon in-process on loopback), checks
// the program's outputs, and prints every metric by name with its unit,
// plus the host block the numbers came from. BENCHMARK.json declares the
// workloads that gate changes; layers.json explains each workload and
// metric.
//
// Run it from the repository root through its wrapper, which builds it
// from source first:
//
//	bash benchmark/run.sh --workload cocomac_run --seed 1 --seconds 40 --trace 0
//	bash benchmark/run.sh compare OLD.log NEW.log
//	bash benchmark/run.sh pin 1 64 > benchmark/pins.go
//
// With --trace 0 a run measures the end-to-end metrics with no tracing.
// With --trace 1 it records benchmark-owned spans around each call into
// a layer, reads what the program exports (RunStats, telemetry phase
// histograms, the daemon's /metrics), reports the per-layer metrics and
// the tracing overhead, and writes a Chrome/Perfetto trace.
//
// The last line of standard output is the result object; the line
// before it is a record with the host block, seed, checks and sample
// details, which compare mode reads back.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// workload is one benchmark workload. measure fills the end-to-end
// metrics with tracing off; traced fills the per-layer metrics.
type workload struct {
	name    string
	measure func(c *runCtx) error
	traced  func(c *runCtx) error
}

var workloads = []workload{
	{name: "cocomac_run", measure: measureCocomac, traced: tracedCocomac},
	{name: "serve_fleet", measure: measureFleet, traced: tracedFleet},
}

// runCtx is what a workload gets: its seed, its measuring time, the
// report to fill, and (traced runs only) the span recorder.
type runCtx struct {
	seed    uint64
	seconds time.Duration
	rep     *report
	rec     *recorder
}

// outDir holds the benchmark's build and run outputs inside the
// checkout; run.sh builds into it too.
const outDir = ".bench_build/compass-bench"

func main() {
	if len(os.Args) > 1 {
		modes := map[string]func([]string) error{"compare": compareMain, "pin": pinMain}
		if mode, ok := modes[os.Args[1]]; ok {
			if err := mode(os.Args[2:]); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", os.Args[1], err)
				os.Exit(1)
			}
			return
		}
	}
	if err := runMain(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func runMain() error {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 20, "measuring time per run")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics untraced, 1 = per-layer metrics from a traced run")
	flag.Parse()

	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	w := findWorkload(*name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if err := checkWorkloads(spec); err != nil {
		return err
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}

	c := &runCtx{seed: *seed, seconds: time.Duration(*seconds) * time.Second, rep: newReport()}
	decls := spec.EndToEnd
	run := w.measure
	if *trace == 1 {
		c.rec = &recorder{}
		decls = spec.PerLayer
		run = w.traced
	}
	host := hostBlock(*seed)
	if err := run(c); err != nil {
		return err
	}
	metrics, err := c.rep.metrics(decls)
	if err != nil {
		return err
	}

	rec := map[string]any{
		"record":     1,
		"workload":   w.name,
		"seed":       *seed,
		"trace":      *trace,
		"seconds":    *seconds,
		"host":       host,
		"metrics":    metrics,
		"notes":      c.rep.notes,
		"absent":     c.rep.absent,
		"checks":     c.rep.checks,
		"failures":   c.rep.failures,
		"attempted":  c.rep.attempted,
		"failed":     c.rep.failed,
		"error_rate": errorRate(c.rep),
	}
	if c.rec != nil {
		path, err := writeTrace(w.name, *seed, c.rec.snapshot())
		if err != nil {
			return err
		}
		rec["trace_file"] = path
	}
	printHuman(w.name, host, metrics, c.rep)
	raw, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	fmt.Println(string(raw))
	result := map[string]any{
		"correct":   c.rep.failed == 0 && c.rep.attempted > 0,
		"attempted": c.rep.attempted,
		"failed":    c.rep.failed,
		"metrics":   metrics,
	}
	raw, err = json.Marshal(result)
	if err != nil {
		return err
	}
	fmt.Println(string(raw))
	return nil
}

// checkWorkloads requires the workloads BENCHMARK.json declares and the
// workloads this binary runs to be the same set.
func checkWorkloads(spec *benchSpec) error {
	declared := map[string]bool{}
	for _, d := range spec.Workloads {
		if findWorkload(d.Name) == nil {
			return fmt.Errorf("BENCHMARK.json declares workload %q, which the benchmark does not run", d.Name)
		}
		declared[d.Name] = true
	}
	for _, w := range workloads {
		if !declared[w.name] {
			return fmt.Errorf("the benchmark runs workload %q, which BENCHMARK.json does not declare", w.name)
		}
	}
	return nil
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func errorRate(r *report) float64 {
	if r.attempted == 0 {
		return 1
	}
	return float64(r.failed) / float64(r.attempted)
}

// writeTrace exports the run's spans as a Chrome/Perfetto trace.
func writeTrace(workload string, seed uint64, spans []span) (string, error) {
	dir := filepath.Join(outDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := writeChromeTrace(f, spans); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// printHuman prints the host block, every metric with its unit and
// sample note, and the output checks, one per line.
func printHuman(workload string, host map[string]any, metrics map[string]valued, r *report) {
	fmt.Printf("# workload %s  seed %v  nproc %v  GOMAXPROCS %v  %v  commit %v\n",
		workload, host["seed"], host["nproc"], host["gomaxprocs"], host["go"], host["commit"])
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := metrics[n]
		extra := r.notes[n]
		if why, ok := r.absent[n]; ok {
			extra = "absent: " + why
		}
		fmt.Printf("%-36s %16.6g %-8s %s\n", n, m.Value, m.Unit, extra)
	}
	kinds := make([]string, 0, len(r.checks))
	for k := range r.checks {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Printf("# check %s: %d passed\n", k, r.checks[k])
	}
	for _, f := range r.failures {
		fmt.Println("# FAILED", f)
	}
	fmt.Printf("# attempted %d  failed %d  error_rate %g\n", r.attempted, r.failed, errorRate(r))
}

// loop calls op until the measuring time is spent. It starts another
// iteration only while the previous one would still end in time, and
// always runs at least min iterations.
func loop(budget time.Duration, min int, op func(i int) error) error {
	start := time.Now()
	var last time.Duration
	for i := 0; i < min || time.Since(start)+last <= budget; i++ {
		t0 := time.Now()
		if err := op(i); err != nil {
			return err
		}
		last = time.Since(t0)
	}
	return nil
}

// liveHeap is the live heap after a forced collection.
func liveHeap() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}
