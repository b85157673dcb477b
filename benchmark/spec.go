package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strings"
)

// metricDecl is one metric as BENCHMARK.json declares it.
type metricDecl struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// workloadDecl is one workload as BENCHMARK.json declares it.
type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// benchSpec is BENCHMARK.json: the declared workloads and the metric
// names, units and bounds every run must report.
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDecl `json:"workloads"`
	EndToEnd   []metricDecl   `json:"end_to_end"`
	PerLayer   []metricDecl   `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// maxBound is the largest share by which an end-to-end metric may be
// allowed to worsen.
const maxBound = 0.25

// loadSpec reads and validates BENCHMARK.json.
func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parseSpec(raw)
}

func parseSpec(raw []byte) (*benchSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var s benchSpec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if err := s.validate(); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// validate checks every name, unit, bound and count against the
// file's format limits, so a malformed file fails here rather than
// after a long run.
func (s *benchSpec) validate() error {
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		return fmt.Errorf("run_seconds %d outside 1..60", s.RunSeconds)
	}
	if n := len(s.Workloads); n < 2 || n > 8 {
		return fmt.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(s.EndToEnd); n < 1 || n > 16 {
		return fmt.Errorf("%d end_to_end metrics, want 1..16", n)
	}
	if n := len(s.PerLayer); n < 1 || n > 128 {
		return fmt.Errorf("%d per_layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	useName := func(name string) error {
		if !nameRE.MatchString(name) {
			return fmt.Errorf("bad name %q", name)
		}
		if seen[name] {
			return fmt.Errorf("name %q used twice", name)
		}
		seen[name] = true
		return nil
	}
	for _, w := range s.Workloads {
		if err := useName(w.Name); err != nil {
			return err
		}
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			return fmt.Errorf("workload %s: why must be one line of 1..200 characters", w.Name)
		}
	}
	check := func(m metricDecl, endToEnd bool) error {
		if err := useName(m.Name); err != nil {
			return err
		}
		if !unitRE.MatchString(m.Unit) {
			return fmt.Errorf("metric %s: bad unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			return fmt.Errorf("metric %s: better must be lower or higher", m.Name)
		}
		switch {
		case endToEnd && m.Bound == nil:
			return fmt.Errorf("metric %s: end_to_end metric needs a bound", m.Name)
		case endToEnd && (*m.Bound <= 0 || *m.Bound > maxBound):
			return fmt.Errorf("metric %s: bound %g outside (0, %g]", m.Name, *m.Bound, maxBound)
		case !endToEnd && m.Bound != nil:
			return fmt.Errorf("metric %s: per_layer metrics take no bound", m.Name)
		}
		return nil
	}
	setup := false
	for _, m := range s.EndToEnd {
		if err := check(m, true); err != nil {
			return err
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		return fmt.Errorf("end_to_end needs setup_s in unit s, better lower")
	}
	for _, m := range s.PerLayer {
		if err := check(m, false); err != nil {
			return err
		}
	}
	return nil
}

// bound returns the declared bound of an end-to-end metric (0 when the
// metric is per-layer or unknown).
func (s *benchSpec) bound(name string) float64 {
	for _, m := range s.EndToEnd {
		if m.Name == name && m.Bound != nil {
			return *m.Bound
		}
	}
	return 0
}

// report collects what one run measured. Workloads set values by the
// names BENCHMARK.json declares; a metric whose layer the workload does
// not load is marked absent with the reason instead.
type report struct {
	values    map[string]float64
	absent    map[string]string
	notes     map[string]string
	checks    map[string]int // passed output checks, by kind
	failures  []string
	attempted int
	failed    int
}

func newReport() *report {
	return &report{values: map[string]float64{}, absent: map[string]string{}, notes: map[string]string{}, checks: map[string]int{}}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) markAbsent(reason string, names ...string) {
	for _, n := range names {
		if _, ok := r.values[n]; !ok {
			r.absent[n] = reason
		}
	}
}

func (r *report) note(name, format string, args ...any) {
	r.notes[name] = fmt.Sprintf(format, args...)
}

// maxFailures caps the failure messages a record keeps.
const maxFailures = 20

// check counts a passed output check under its kind, or counts a failed
// operation and keeps the message describing it.
func (r *report) check(ok bool, kind, format string, args ...any) bool {
	if ok {
		r.checks[kind]++
		return true
	}
	r.failed++
	if len(r.failures) < maxFailures {
		r.failures = append(r.failures, kind+": "+fmt.Sprintf(format, args...))
	}
	return false
}

// valued is one metric in the result line.
type valued struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics assembles the declared metrics. Every declared name
// must have been measured or marked absent, and nothing undeclared may
// have been measured: either is a bug in the benchmark. Absent metrics
// report 0 and their reason travels in the record line.
func (r *report) metrics(decls []metricDecl) (map[string]valued, error) {
	out := make(map[string]valued, len(decls))
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.Name] = true
		v, ok := r.values[d.Name]
		if !ok {
			if _, gone := r.absent[d.Name]; !gone {
				return nil, fmt.Errorf("metric %s was neither measured nor marked absent", d.Name)
			}
		}
		out[d.Name] = valued{Value: v, Unit: d.Unit}
	}
	var extra []string
	for name := range r.values {
		if !declared[name] {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return nil, fmt.Errorf("measured metrics not declared for this mode: %s", strings.Join(extra, ", "))
	}
	return out, nil
}
