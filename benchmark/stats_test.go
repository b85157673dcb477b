package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// The compare mode and the acceptance arithmetic must agree with
// Python's statistics.quantiles(xs, n=4); the expected values were
// computed with it.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.1, 1.0, 2.2, 7.5}, [3]float64{1.3, 2.65, 6.4}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{0.9, 0.7, 1.3, 1.1, 1.0, 0.95, 1.05, 0.99, 1.2, 0.8}, [3]float64{0.875, 0.995, 1.125}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.want[0]) || !near(q2, c.want[1]) || !near(q3, c.want[2]) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
		}
	}
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending, so tail must sort
	}
	return xs
}

// The tail percentile is p99 only with ten samples beyond it; otherwise
// the highest percentile that has ten beyond, and with ten samples or
// fewer none qualifies and the maximum is reported as such.
func TestTailTenBeyondRule(t *testing.T) {
	for _, c := range []struct {
		n      int
		wantV  float64
		wantQ  float64
		wantOK bool
	}{
		{0, 0, 0, false},
		{5, 5, 1, false},
		{10, 10, 1, false},
		{11, 1, 1.0 / 11, true},  // only the minimum has ten above it
		{100, 90, 0.90, true},    // p99 would leave 1 beyond; p90 leaves 10
		{1000, 990, 0.99, true},  // p99 leaves exactly 10 beyond
		{5000, 4950, 0.99, true}, // plenty beyond p99
		{1099, 1089, 0.99, true}, // nearest-rank p99 index 1088 leaves 10 beyond
		{500, 490, 0.98, true},   // p99 leaves 5 beyond; p98 leaves 10
	} {
		v, q, ok := tail(seq(c.n))
		if v != c.wantV || !near(q, c.wantQ) || ok != c.wantOK {
			t.Errorf("tail(n=%d) = %v q=%v ok=%v, want %v q=%v ok=%v", c.n, v, q, ok, c.wantV, c.wantQ, c.wantOK)
		}
		if ok {
			beyond := 0
			for _, x := range seq(c.n) {
				if x > v {
					beyond++
				}
			}
			if beyond < tailBeyond {
				t.Errorf("tail(n=%d) = %v leaves %d samples beyond", c.n, v, beyond)
			}
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

func TestHistQuantile(t *testing.T) {
	b := []bucket{{1, 10}, {2, 30}, {4, 40}}
	for _, c := range []struct{ q, want float64 }{
		{0.25, 1},  // rank 10: top of the first bucket
		{0.5, 1.5}, // rank 20: halfway through (1, 2]
		{0.875, 3}, // rank 35: halfway through (2, 4]
		{1, 4},     // rank 40: the last finite bound
	} {
		if got, ok := histQuantile(b, 40, c.q); !ok || !near(got, c.want) {
			t.Errorf("histQuantile(q=%v) = %v %v, want %v", c.q, got, ok, c.want)
		}
	}
	if _, ok := histQuantile(nil, 0, 0.5); ok {
		t.Error("empty histogram reported a quantile")
	}
}

// The end-to-end tail reports one fixed quantile, and the minimum
// sample every run reaches leaves ten samples beyond it.
func TestLatencyTailFixedQuantile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{1, 1},
		{10, 9},
		{100, 90},
		{140, 126},
	} {
		if got := percentile(seq(c.n), latencyTailQ); got != c.want {
			t.Errorf("percentile(n=%d, %v) = %v, want %v", c.n, latencyTailQ, got, c.want)
		}
	}
	v := percentile(seq(minLatencySamples), latencyTailQ)
	if beyond := minLatencySamples - int(v); beyond < tailBeyond {
		t.Errorf("minimum sample of %d leaves %d beyond p%v", minLatencySamples, beyond, latencyTailQ*100)
	}
	if minCocomacJobs*cocomacJobTicks/cocomacChunkTicks < minLatencySamples || minFleets*fleetSessions < minLatencySamples {
		t.Errorf("minimum runs give %d chunks and %d sessions, want at least %d",
			minCocomacJobs*cocomacJobTicks/cocomacChunkTicks, minFleets*fleetSessions, minLatencySamples)
	}
}
