package faults

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func TestParseGrammar(t *testing.T) {
	cases := []struct {
		spec string
		ok   bool
	}{
		{"drop", true},
		{"dup", true},
		{"delay:k=3", true},
		{"stall:rank=1,k=2", true},
		{"crash:rank=1,tick=5", true},
		{"drop;dup;delay:k=1", true},
		{"drop:p=0.25", true},
		{"drop:attempts=9", true},
		{" drop ; dup ", true},
		{"", false},
		{";", false},
		{"explode", false},
		{"drop:bogus=1", false},
		{"drop:p=1.5", false},
		{"drop:attempts=0", false},
		{"delay:k=0", false},
		{"drop:rank", false},
		{"crash:dest=1", false},
		{"stall:dest=2", false},
	}
	for _, tc := range cases {
		_, err := Parse(tc.spec, 1)
		if tc.ok && err != nil {
			t.Errorf("Parse(%q): unexpected error %v", tc.spec, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("Parse(%q): accepted", tc.spec)
		}
	}
}

func TestNilAndEmptyInjectorInert(t *testing.T) {
	var nilInj *Injector
	for _, in := range []*Injector{nilInj, {}} {
		if in.Active() {
			t.Fatal("inert injector reports active")
		}
		if act, _ := in.Send(0, 0, 1, 0); act != ActNone {
			t.Fatalf("inert injector returned action %v", act)
		}
		if in.Stall(0, 0) != 0 {
			t.Fatal("inert injector stalls")
		}
		if in.Crash(0, 0) != nil {
			t.Fatal("inert injector crashes")
		}
		if s := in.Summary(); s != (Summary{}) {
			t.Fatalf("inert injector counted %+v", s)
		}
	}
}

func TestDeterministicDropRetriesThenPasses(t *testing.T) {
	in, err := Parse("drop:attempts=2", 1)
	if err != nil {
		t.Fatal(err)
	}
	for attempt, want := range []Action{ActDrop, ActDrop, ActNone} {
		act, _ := in.Send(0, 3, 1, attempt)
		if act != want {
			t.Fatalf("attempt %d: action %v, want %v", attempt, act, want)
		}
	}
	sum := in.Summary()
	if sum.Injected[Drop] != 2 {
		t.Fatalf("drop count %d, want 2", sum.Injected[Drop])
	}
	if sum.Retries != 2 {
		t.Fatalf("retry count %d, want 2 (attempts 1 and 2)", sum.Retries)
	}
}

func TestSelectorsScopeTheFault(t *testing.T) {
	in, err := Parse("crash:rank=1,tick=5", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Crash(0, 5); err != nil {
		t.Fatalf("crash fired on wrong rank: %v", err)
	}
	if err := in.Crash(1, 4); err != nil {
		t.Fatalf("crash fired on wrong tick: %v", err)
	}
	err = in.Crash(1, 5)
	var crash *CrashError
	if !errors.As(err, &crash) || crash.Rank != 1 || crash.Tick != 5 {
		t.Fatalf("crash at rank 1 tick 5 returned %v", err)
	}
	if !strings.Contains(err.Error(), "rank 1") || !strings.Contains(err.Error(), "tick 5") {
		t.Fatalf("crash error does not name rank and tick: %v", err)
	}
}

func TestDelayAndStallScaleWithK(t *testing.T) {
	in, err := Parse("delay:k=3;stall:rank=2,k=4", 1)
	if err != nil {
		t.Fatal(err)
	}
	in.DelayQuantum = time.Millisecond
	act, d := in.Send(0, 0, 1, 0)
	if act != ActDelay || d != 3*time.Millisecond {
		t.Fatalf("delay verdict %v/%v, want ActDelay/3ms", act, d)
	}
	if d := in.Stall(2, 7); d != 4*time.Millisecond {
		t.Fatalf("stall %v, want 4ms", d)
	}
	if d := in.Stall(0, 7); d != 0 {
		t.Fatalf("stall fired on unselected rank: %v", d)
	}
}

func TestDuplicateDecidesOncePerMessage(t *testing.T) {
	// A retried send must get the same duplicate verdict as the first
	// attempt: the decision hashes attempt 0 regardless of the retry
	// counter, so a drop-then-retry sequence cannot double-fire dup.
	in, err := Parse("dup:p=0.5", 42)
	if err != nil {
		t.Fatal(err)
	}
	for tick := uint64(0); tick < 50; tick++ {
		first, _ := in.Send(1, tick, 2, 0)
		retry, _ := in.Send(1, tick, 2, 3)
		if first != retry {
			t.Fatalf("tick %d: attempt 0 says %v, attempt 3 says %v", tick, first, retry)
		}
	}
}

func TestProbabilisticDecisionsDeterministicPerSeed(t *testing.T) {
	verdicts := func(seed uint64) []Action {
		in, err := Parse("drop:p=0.3", seed)
		if err != nil {
			t.Fatal(err)
		}
		var out []Action
		for tick := uint64(0); tick < 200; tick++ {
			act, _ := in.Send(0, tick, 1, 0)
			out = append(out, act)
		}
		return out
	}
	a, b := verdicts(7), verdicts(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at decision %d", i)
		}
	}
	c := verdicts(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("200 decisions identical across different seeds")
	}
	var fired int
	for _, act := range a {
		if act == ActDrop {
			fired++
		}
	}
	// 200 Bernoulli(0.3) trials: expect 60, allow a wide band.
	if fired < 30 || fired > 95 {
		t.Fatalf("p=0.3 fired %d/200 times", fired)
	}
}

func TestSummaryCountsDedups(t *testing.T) {
	in, err := Parse("dup", 1)
	if err != nil {
		t.Fatal(err)
	}
	in.Dedup(3)
	in.Dedup(0)
	if got := in.Summary().Dedups; got != 3 {
		t.Fatalf("dedups %d, want 3", got)
	}
}

// FuzzParse holds the -faults grammar to the decoders' property: an
// error or an injector whose every rule is valid, never a panic.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		in, err := Parse(spec, 1)
		if err != nil {
			return
		}
		if len(in.rules) == 0 {
			t.Fatal("accepted a spec with no rules")
		}
		for _, r := range in.rules {
			if !(r.P >= 0 && r.P <= 1) || r.K < 1 || r.Attempts < 1 || r.validate() != nil {
				t.Fatalf("accepted an invalid rule %+v", r)
			}
		}
	})
}
