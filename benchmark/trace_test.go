package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// Self time is a span's duration minus the union of its children's
// intervals: overlapping children count once, a child reaching past its
// parent counts only inside it, and grandchildren are charged to their
// own parent, not to the root.
func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{ID: 1, Name: "bench.fleet", Start: at(0), End: at(100)},
		{ID: 2, Parent: 1, Name: "server.create", Start: at(10), End: at(40)},
		{ID: 3, Parent: 1, Name: "server.create", Start: at(30), End: at(50)}, // overlaps 2
		{ID: 4, Parent: 1, Name: "server.poll", Start: at(90), End: at(120)},  // runs past the root
		{ID: 5, Parent: 2, Name: "pcc.compile", Start: at(15), End: at(25)},
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{
		"bench":  50 * time.Millisecond, // 100 - [10,50) - [90,100)
		"server": 70 * time.Millisecond, // (30-10) + 20 + 30
		"pcc":    10 * time.Millisecond,
	}
	for layer, d := range want {
		if self[layer] != d {
			t.Errorf("self[%s] = %v, want %v", layer, self[layer], d)
		}
	}
}

func TestRecorderNilIsNoOp(t *testing.T) {
	var r *recorder
	id := r.begin("compass.run", 0, 0, 0)
	r.end(id)
	if id != 0 || r.snapshot() != nil {
		t.Fatal("nil recorder recorded a span")
	}
}

func TestChromeTraceExport(t *testing.T) {
	r := &recorder{}
	root := r.begin("bench.job", 0, 7, 0)
	child := r.begin("compass.run", root, 7, 0)
	r.end(child)
	r.end(root)
	open := r.begin("compass.run", root, 7, 0) // never closed: not exported
	_ = open
	var buf bytes.Buffer
	if err := writeChromeTrace(&buf, r.snapshot()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Args map[string]int `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("%d events, want the 2 closed spans", len(doc.TraceEvents))
	}
	ev := doc.TraceEvents[1]
	if ev.Name != "compass.run" || ev.Cat != "compass" || ev.Ph != "X" || ev.Args["parent"] != root || ev.Args["run"] != 7 {
		t.Errorf("child event = %+v", ev)
	}
}

// The fleet's client goroutines record spans into one recorder at once.
func TestRecorderConcurrent(t *testing.T) {
	r := &recorder{}
	root := r.begin("bench.fleet", 0, 0, 0)
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 100; i++ {
				r.end(r.begin("server.create", root, 0, g+1))
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	r.end(root)
	if got := len(r.snapshot()); got != 401 {
		t.Fatalf("%d closed spans, want 401", got)
	}
}
