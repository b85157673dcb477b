package main

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer's public API, recorded by the
// benchmark around the call. Name is "<layer>.<operation>"; Parent is
// the enclosing span's ID (0 for a root); Run groups the spans of one
// workload cycle (a job, a fleet, a scenario run); Lane is the client
// goroutine, used as the trace viewer's thread row.
type span struct {
	ID     int
	Parent int
	Name   string
	Run    int
	Lane   int
	Start  time.Time
	End    time.Time
}

// layer is the span name's prefix up to the first dot.
func (s *span) layer() string {
	layer, _, _ := strings.Cut(s.Name, ".")
	return layer
}

func (s *span) dur() time.Duration { return s.End.Sub(s.Start) }

// recorder keeps spans in memory until the run ends. Every method is a
// no-op on a nil recorder, so untraced runs make the same calls and pay
// one nil check each.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

// begin opens a span and returns its ID (0 on a nil recorder).
func (r *recorder) begin(name string, parent, run, lane int) int {
	if r == nil {
		return 0
	}
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Run: run, Lane: lane, Start: now})
	return len(r.spans)
}

// end closes the span begin returned.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Now()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// snapshot copies the closed spans.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if !s.End.IsZero() {
			out = append(out, s)
		}
	}
	return out
}

// durations lists, in seconds, the durations of every span named name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for i := range spans {
		if spans[i].Name == name {
			out = append(out, spans[i].dur().Seconds())
		}
	}
	return out
}

// selfTimes sums each layer's self time: every span's duration minus
// the part of its interval that the union of its children covers.
// Children may overlap one another (concurrent calls), so coverage is
// an interval union, never a plain sum.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]*span)
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			children[p] = append(children[p], &spans[i])
		}
	}
	out := make(map[string]time.Duration)
	for i := range spans {
		s := &spans[i]
		out[s.layer()] += s.dur() - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered is the length of [start, end) that the union of the kids'
// intervals overlaps.
func covered(start, end time.Time, kids []*span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, k := range kids {
		a, b := k.Start, k.End
		if a.Before(start) {
			a = start
		}
		if b.After(end) {
			b = end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var curA, curB time.Time
	for i, v := range ivs {
		if i == 0 || v.a.After(curB) {
			if i > 0 {
				total += curB.Sub(curA)
			}
			curA, curB = v.a, v.b
			continue
		}
		if v.b.After(curB) {
			curB = v.b
		}
	}
	if len(ivs) > 0 {
		total += curB.Sub(curA)
	}
	return total
}

// writeChromeTrace writes spans as Chrome trace-event JSON, which
// Perfetto and chrome://tracing open directly. Timestamps are
// microseconds from the first span.
func writeChromeTrace(w io.Writer, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	var epoch time.Time
	for i := range spans {
		if epoch.IsZero() || spans[i].Start.Before(epoch) {
			epoch = spans[i].Start
		}
	}
	events := make([]event, 0, len(spans))
	for i := range spans {
		s := &spans[i]
		events = append(events, event{
			Name: s.Name,
			Cat:  s.layer(),
			Ph:   "X",
			TS:   float64(s.Start.Sub(epoch).Nanoseconds()) / 1e3,
			Dur:  float64(s.dur().Nanoseconds()) / 1e3,
			PID:  1,
			TID:  s.Lane,
			Args: map[string]int{"id": s.ID, "parent": s.Parent, "run": s.Run},
		})
	}
	bw := bufio.NewWriter(w)
	if err := json.NewEncoder(bw).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"}); err != nil {
		return err
	}
	return bw.Flush()
}
