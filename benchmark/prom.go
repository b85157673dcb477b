package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// sample is one line of a Prometheus text exposition.
type sample struct {
	name   string
	labels map[string]string
	value  float64
}

// promSet is a parsed exposition: the daemon's /metrics or a run's
// telemetry registry rendered through the same writer.
type promSet []sample

// scrape fetches and parses a daemon's /metrics.
func scrape(hc *http.Client, addr string) (promSet, error) {
	resp, err := hc.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape /metrics: %s", resp.Status)
	}
	return parseProm(resp.Body)
}

// parseProm reads the text exposition format: comment lines, then
// `name{k="v",...} value` samples. Label values never contain commas or
// quotes in this program's output; a line that does not parse is an
// error rather than a silently wrong number.
func parseProm(r io.Reader) (promSet, error) {
	var out promSet
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			return nil, fmt.Errorf("metrics line %d: no value: %q", n, line)
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", n, err)
		}
		s := sample{name: line[:cut], labels: map[string]string{}, value: v}
		if open := strings.IndexByte(s.name, '{'); open >= 0 {
			body := strings.TrimSuffix(s.name[open+1:], "}")
			s.name = s.name[:open]
			for _, kv := range strings.Split(body, ",") {
				k, v, ok := strings.Cut(kv, "=")
				if !ok {
					return nil, fmt.Errorf("metrics line %d: bad label %q", n, kv)
				}
				s.labels[k] = strings.Trim(v, `"`)
			}
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

// matches reports whether the sample carries every wanted label.
func (s *sample) matches(want map[string]string) bool {
	for k, v := range want {
		if s.labels[k] != v {
			return false
		}
	}
	return true
}

// sum adds every series of a counter or gauge whose labels match.
func (p promSet) sum(name string, want map[string]string) float64 {
	var total float64
	for i := range p {
		if p[i].name == name && p[i].matches(want) {
			total += p[i].value
		}
	}
	return total
}

// has reports whether any series of name matches.
func (p promSet) has(name string, want map[string]string) bool {
	for i := range p {
		if p[i].name == name && p[i].matches(want) {
			return true
		}
	}
	return false
}

// hist merges every matching series of a histogram into one cumulative
// bucket list (finite bounds only) and returns it with the total count
// and sum.
func (p promSet) hist(name string, want map[string]string) (buckets []bucket, count, total float64) {
	byLE := map[float64]float64{}
	for i := range p {
		s := &p[i]
		if !s.matches(want) {
			continue
		}
		switch s.name {
		case name + "_bucket":
			if s.labels["le"] == "+Inf" {
				continue
			}
			le, err := strconv.ParseFloat(s.labels["le"], 64)
			if err == nil {
				byLE[le] += s.value
			}
		case name + "_count":
			count += s.value
		case name + "_sum":
			total += s.value
		}
	}
	for le, c := range byLE {
		buckets = append(buckets, bucket{le: le, count: c})
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
	return buckets, count, total
}
