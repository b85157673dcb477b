package main

import (
	"strings"
	"testing"
)

func TestParseProm(t *testing.T) {
	text := `# HELP compassd_model_cache_hits session creates served by a resident image
# TYPE compassd_model_cache_hits counter
compassd_model_cache_hits 7
compass_phase_seconds_bucket{session="s1",phase="network",le="0.001"} 3
compass_phase_seconds_bucket{session="s1",phase="network",le="0.01"} 4
compass_phase_seconds_bucket{session="s1",phase="network",le="+Inf"} 4
compass_phase_seconds_sum{session="s1",phase="network"} 0.012
compass_phase_seconds_count{session="s1",phase="network"} 4
compass_phase_seconds_bucket{session="s2",phase="network",le="0.001"} 1
compass_phase_seconds_bucket{session="s2",phase="network",le="0.01"} 2
compass_phase_seconds_sum{session="s2",phase="network"} 0.003
compass_phase_seconds_count{session="s2",phase="network"} 2
compass_phase_seconds_count{session="s2",phase="synapse"} 5
`
	p, err := parseProm(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if got := p.sum("compassd_model_cache_hits", nil); got != 7 {
		t.Errorf("hits = %v", got)
	}
	b, n, sum := p.hist("compass_phase_seconds", map[string]string{"phase": "network"})
	if n != 6 || !near(sum, 0.015) || len(b) != 2 || b[0].count != 4 || b[1].count != 6 {
		t.Errorf("merged histogram = %v count %v sum %v", b, n, sum)
	}
	if p.has("compass_phase_seconds_count", map[string]string{"phase": "neuron"}) {
		t.Error("found a series that is not there")
	}
	if _, err := parseProm(strings.NewReader("no_value_here\n")); err == nil {
		t.Error("accepted a line without a value")
	}
}
