package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func loadRepoSpec(t *testing.T) *benchSpec {
	t.Helper()
	s, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// The repository's BENCHMARK.json must pass the same validation the
// benchmark applies before every run, and name the workloads it runs.
func TestRepoSpecValid(t *testing.T) {
	s := loadRepoSpec(t)
	if err := checkWorkloads(s); err != nil {
		t.Fatal(err)
	}
}

// The declared workloads and the workloads the binary runs must be the
// same set: a run refuses a spec that leaves one out or adds one.
func TestCheckWorkloadsBothWays(t *testing.T) {
	s := loadRepoSpec(t)
	short := *s
	short.Workloads = s.Workloads[:len(s.Workloads)-1]
	if checkWorkloads(&short) == nil {
		t.Error("a spec missing a workload the binary runs was accepted")
	}
	extra := *s
	extra.Workloads = append(append([]workloadDecl(nil), s.Workloads...), workloadDecl{Name: "no_such_workload", Why: "x"})
	if checkWorkloads(&extra) == nil {
		t.Error("a spec declaring a workload the binary does not run was accepted")
	}
}

// Every per-layer metric is documented in layers.json's layer map
// exactly once, with no stale entries, and every workload is described.
func TestLayerMapCoversPerLayerMetrics(t *testing.T) {
	s := loadRepoSpec(t)
	raw, err := os.ReadFile("layers.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads map[string]json.RawMessage `json:"workloads"`
		LayerMap  []struct {
			Metric string `json:"metric"`
		} `json:"layer_map"`
		Unmeasured map[string]string `json:"unmeasured"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	mapped := map[string]int{}
	for _, e := range doc.LayerMap {
		mapped[e.Metric]++
	}
	for _, m := range s.PerLayer {
		if mapped[m.Name] != 1 {
			t.Errorf("per-layer metric %s appears %d times in the layer map", m.Name, mapped[m.Name])
		}
		delete(mapped, m.Name)
	}
	for name := range mapped {
		t.Errorf("layer map names undeclared metric %s", name)
	}
	for _, w := range s.Workloads {
		if _, ok := doc.Workloads[w.Name]; !ok {
			t.Errorf("layers.json does not describe workload %s", w.Name)
		}
		delete(doc.Workloads, w.Name)
	}
	for name := range doc.Workloads {
		t.Errorf("layers.json describes undeclared workload %s", name)
	}
	for _, layer := range []string{"cluster", "reshape", "faults", "perfmodel"} {
		if doc.Unmeasured[layer] == "" {
			t.Errorf("layers.json does not name unmeasured layer %s", layer)
		}
	}
}

// Every metric name a workload sets is one BENCHMARK.json declares.
func TestLayerGroupsDeclared(t *testing.T) {
	s := loadRepoSpec(t)
	declared := map[string]bool{}
	for _, m := range s.PerLayer {
		declared[m.Name] = true
	}
	var names []string
	for _, g := range [][]string{phaseNames, workNames, setupNames, serverLayer, scenarioLayer, daemonNames} {
		names = append(names, g...)
	}
	for _, l := range selfLayers {
		names = append(names, "self."+l+"_s")
	}
	for _, n := range names {
		if !declared[n] {
			t.Errorf("workload metric %s is not declared in BENCHMARK.json", n)
		}
	}
}

func TestSpecValidationRejects(t *testing.T) {
	good, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ name, from, to string }{
		{"name with a space", `"name": "ticks_per_s"`, `"name": "ticks per s"`},
		{"name starting with a dot", `"name": "ticks_per_s"`, `"name": ".ticks_per_s"`},
		{"duplicate name", `"name": "latency_p90_ms"`, `"name": "latency_p50_ms"`},
		{"unit too long", `"unit": "ticks/s"`, `"unit": "ticks-per-second-x"`},
		{"bound over a quarter", `"bound": 0.25`, `"bound": 0.3`},
		{"unknown key", `"run_seconds"`, `"extra": 1, "run_seconds"`},
		{"better neither way", `"better": "higher"`, `"better": "more"`},
		{"setup_s missing", `"name": "setup_s"`, `"name": "setup_time"`},
	} {
		bad := strings.Replace(string(good), c.from, c.to, 1)
		if bad == string(good) {
			t.Fatalf("%s: pattern %q not found", c.name, c.from)
		}
		if _, err := parseSpec([]byte(bad)); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	if _, err := parseSpec(good); err != nil {
		t.Fatalf("the unmodified file fails: %v", err)
	}
}

// A run must report every declared metric of its mode, measured or
// absent with a reason, and nothing undeclared.
func TestReportMetricsComplete(t *testing.T) {
	decls := []metricDecl{{Name: "a", Unit: "s"}, {Name: "b", Unit: "ms"}}
	r := newReport()
	r.set("a", 1)
	if _, err := r.metrics(decls); err == nil {
		t.Error("missing metric b accepted")
	}
	r.markAbsent("not loaded", "b")
	got, err := r.metrics(decls)
	if err != nil {
		t.Fatal(err)
	}
	if got["a"].Value != 1 || got["b"].Unit != "ms" {
		t.Errorf("metrics = %v", got)
	}
	r.set("c", 2)
	if _, err := r.metrics(decls); err == nil {
		t.Error("undeclared metric c accepted")
	}
}
