package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// compare mode reads two result sets, each the standard output of any
// number of runs (one file, or a directory of files), and prints one row
// per workload and metric: both sides' medians and quartiles and the
// change. For end-to-end metrics it also judges the change against the
// metric's bound, and marks it unresolved when either side's spread
// (quartile distance over median) exceeds the bound, unless every new
// run beats every old one.

// runRecord is the part of a run's record line compare reads.
type runRecord struct {
	Record   int               `json:"record"`
	Workload string            `json:"workload"`
	Metrics  map[string]valued `json:"metrics"`
	Absent   map[string]string `json:"absent"`
}

func compareMain(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: compare OLD NEW (files or directories of run output)")
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	old, err := readRecords(args[0])
	if err != nil {
		return err
	}
	cur, err := readRecords(args[1])
	if err != nil {
		return err
	}
	return writeComparison(os.Stdout, spec, old, cur)
}

// readRecords collects the record lines of every file under path.
func readRecords(path string) ([]runRecord, error) {
	var files []string
	err := filepath.WalkDir(path, func(p string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			files = append(files, p)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	var out []runRecord
	for _, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(fh)
		sc.Buffer(make([]byte, 64<<10), 16<<20)
		for sc.Scan() {
			var r runRecord
			if line := sc.Bytes(); len(line) > 0 && line[0] == '{' && json.Unmarshal(line, &r) == nil && r.Record == 1 {
				out = append(out, r)
			}
		}
		err = sc.Err()
		fh.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no run records", path)
	}
	return out, nil
}

// side is one metric's values on one side of the comparison.
type side struct {
	values     []float64
	q1, q2, q3 float64
}

func newSide(xs []float64) side {
	s := side{values: xs}
	s.q1, s.q2, s.q3 = quartiles(xs)
	return s
}

// spread is the quartile distance as a share of the median.
func (s side) spread() float64 {
	if s.q2 == 0 {
		return math.Inf(1)
	}
	return (s.q3 - s.q1) / math.Abs(s.q2)
}

// verdict judges an end-to-end change: how much worse the new median
// is than the old, as a share of the old, against the bound.
func verdict(better string, bound float64, old, cur side) (worse float64, v string) {
	if old.q2 != 0 {
		worse = (cur.q2 - old.q2) / math.Abs(old.q2)
	}
	if better == "higher" {
		worse = -worse
	}
	allBetter := true
	for _, o := range old.values {
		for _, n := range cur.values {
			if (better == "lower" && n >= o) || (better == "higher" && n <= o) {
				allBetter = false
			}
		}
	}
	switch {
	case allBetter:
		return worse, "better (every run)"
	case old.spread() > bound || cur.spread() > bound:
		return worse, "unresolved (spread over bound)"
	case worse > bound:
		return worse, "REGRESSION"
	case worse < 0:
		return worse, "better"
	default:
		return worse, "within bound"
	}
}

// writeComparison prints the comparison table.
func writeComparison(w io.Writer, spec *benchSpec, old, cur []runRecord) error {
	collect := func(rs []runRecord) map[[2]string][]float64 {
		out := map[[2]string][]float64{}
		for _, r := range rs {
			for name, m := range r.Metrics {
				if _, gone := r.Absent[name]; gone {
					continue
				}
				k := [2]string{r.Workload, name}
				out[k] = append(out[k], m.Value)
			}
		}
		return out
	}
	o, n := collect(old), collect(cur)
	var keys [][2]string
	for k := range o {
		if _, ok := n[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	better := map[string]string{}
	for _, m := range append(append([]metricDecl(nil), spec.EndToEnd...), spec.PerLayer...) {
		better[m.Name] = m.Better
	}
	fmt.Fprintf(w, "%-14s %-34s %5s %12s %12s %12s %5s %12s %12s %12s %9s %6s  %s\n",
		"workload", "metric", "n_old", "old_q1", "old_med", "old_q3", "n_new", "new_q1", "new_med", "new_q3", "worse_%", "bound%", "verdict")
	for _, k := range keys {
		a, b := newSide(o[k]), newSide(n[k])
		bound := spec.bound(k[1])
		worse, v := 0.0, "per-layer, no bound"
		if bound > 0 {
			worse, v = verdict(better[k[1]], bound, a, b)
		} else if a.q2 != 0 {
			worse = (b.q2 - a.q2) / math.Abs(a.q2)
			if better[k[1]] == "higher" {
				worse = -worse
			}
		}
		fmt.Fprintf(w, "%-14s %-34s %5d %12.6g %12.6g %12.6g %5d %12.6g %12.6g %12.6g %9.2f %6.1f  %s\n",
			k[0], k[1], len(a.values), a.q1, a.q2, a.q3, len(b.values), b.q1, b.q2, b.q3, worse*100, bound*100, v)
	}
	return nil
}
