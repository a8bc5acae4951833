package prefetch

import (
	"reflect"
	"testing"

	"mira/internal/sim"
)

func TestReadaheadProposesNextN(t *testing.T) {
	r := Readahead{N: 3}
	if got, want := r.OnMiss(10, nil), []int64{11, 12, 13}; !reflect.DeepEqual(got, want) {
		t.Fatalf("OnMiss(10) = %v, want %v", got, want)
	}
}

func TestLeapLocksOntoMajorityStride(t *testing.T) {
	// A clean stride wins the vote once the window is half full: the last
	// miss proposes depth units along it.
	for _, tc := range []struct {
		window int
		depth  int64
		misses []int64
		want   []int64
	}{
		{8, 4, []int64{0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30, 32, 34, 36, 38}, []int64{40, 42, 44, 46}},
		{8, 4, []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, []int64{12, 13, 14, 15}},
		{8, 2, []int64{0, 3, 6, 9, 12, 15, 18, 21, 24, 27, 30, 33}, []int64{36, 39}},
	} {
		p := NewLeap(tc.window, tc.depth)
		var out []int64
		for _, u := range tc.misses {
			out = p.OnMiss(u, nil)
		}
		if !reflect.DeepEqual(out, tc.want) {
			t.Fatalf("misses %v: proposals = %v, want %v", tc.misses, out, tc.want)
		}
	}
	// A window of alternating deltas has no majority: silence.
	for _, units := range [][]int64{
		{0, 1, 10, 11, 20, 21, 30, 31, 40, 41},
		{0, 5, 2, 7, 4, 9, 6, 11, 8, 13, 10}, // +5, -3, +5, ...
	} {
		q := NewLeap(8, 4)
		var last []int64
		for _, u := range units {
			last = q.OnMiss(u, nil)
		}
		if last != nil {
			t.Fatalf("no-majority window %v proposed %v, want nil", units, last)
		}
	}
}

func TestProgrammedFillsResyncsAndTopsUp(t *testing.T) {
	program := make([]int64, 64)
	for i := range program {
		program[i] = int64(i)
	}
	p := NewProgrammed(program, 8)
	if got, want := p.OnMiss(0, nil), []int64{1, 2, 3, 4, 5, 6, 7, 8}; !reflect.DeepEqual(got, want) {
		t.Fatalf("cold miss fill = %v, want %v", got, want)
	}
	// Touches drain the window; the top-up waits until half has drained,
	// then refills in one batch (amortizing the doorbell).
	for _, u := range []int64{1, 2, 3} {
		if got := p.OnPrefetchedTouch(u, nil); got != nil {
			t.Fatalf("touch(%d) refilled early: %v", u, got)
		}
	}
	if got, want := p.OnPrefetchedTouch(4, nil), []int64{9, 10, 11, 12}; !reflect.DeepEqual(got, want) {
		t.Fatalf("half-drain top-up = %v, want %v", got, want)
	}
	// A re-miss behind the cursor (eviction victim touched again) re-anchors
	// and refills the whole window forward.
	if got, want := p.OnMiss(6, nil), []int64{7, 8, 9, 10, 11, 12, 13, 14}; !reflect.DeepEqual(got, want) {
		t.Fatalf("re-miss resync = %v, want %v", got, want)
	}
	// A miss the program never mentions proposes nothing and moves nothing.
	if got := p.OnMiss(999, nil); got != nil {
		t.Fatalf("uncovered miss proposed %v, want nil", got)
	}
}

func TestProgrammedCollapsesConsecutiveDuplicates(t *testing.T) {
	p := NewProgrammed([]int64{5, 5, 5, 6, 6, 7, 5}, 4)
	if p.Len() != 4 {
		t.Fatalf("deduplicated length = %d, want 4", p.Len())
	}
	if got, want := p.OnMiss(5, nil), []int64{6, 7, 5}; !reflect.DeepEqual(got, want) {
		t.Fatalf("proposals after dedup = %v, want %v", got, want)
	}
}

func TestHistoryLocksOntoStride(t *testing.T) {
	h := NewHistory(HistoryConfig{Depth: 4})
	var out []int64
	for u := int64(0); u <= 50; u += 10 {
		out = h.OnMiss(u, nil)
	}
	// After a few sightings the order-1 fallback alone carries a pure
	// stride; the chain runs Depth deep.
	if want := []int64{60, 70, 80, 90}; !reflect.DeepEqual(out, want) {
		t.Fatalf("stride chain = %v, want %v", out, want)
	}
}

func TestHistoryConfidenceGate(t *testing.T) {
	// The delta context (10,20,30) is observed with two different
	// successors (+1 then +5) equally often, at every order of the
	// cascade: no strict majority anywhere, so the third time the context
	// comes around the predictor must stay silent rather than guess.
	h := NewHistory(HistoryConfig{Depth: 2})
	feed := []int64{
		0, 10, 30, 60, 61,
		100, 110, 130, 160, 165,
		200, 210, 230, 260,
	}
	var out []int64
	for _, u := range feed {
		out = h.OnMiss(u, nil)
	}
	if out != nil {
		t.Fatalf("ambiguous context proposed %v, want nil", out)
	}
}

func TestHistoryDeterministic(t *testing.T) {
	rng := sim.NewRNG(9)
	var stream []int64
	for i := 0; i < 2000; i++ {
		stream = append(stream, int64(rng.Intn(64)))
	}
	run := func() [][]int64 {
		h := NewHistory(HistoryConfig{})
		var all [][]int64
		for _, u := range stream {
			all = append(all, h.OnMiss(u, nil))
		}
		return all
	}
	if !reflect.DeepEqual(run(), run()) {
		t.Fatal("identical miss streams produced different proposals")
	}
}

// TestHistoryCoversRepeatingStream is the predictor's intrinsic ceiling
// check under ideal-plane emulation (prefetched units are always resident
// by their touch): an exactly-repeating random stream must be mostly
// covered from the second pass on. This only works because History
// implements StreamTopUp — training on misses alone chases a moving target
// (every hit deletes an access from the learned stream) and plateaus below
// 40% on this same input.
func TestHistoryCoversRepeatingStream(t *testing.T) {
	rng := sim.NewRNG(42)
	var pass []int64
	for i := 0; i < 3000; i++ {
		pass = append(pass, int64(rng.Intn(32)))
	}
	var stream []int64
	for p := 0; p < 3; p++ {
		stream = append(stream, pass...)
	}
	h := NewHistory(HistoryConfig{})
	inflight := map[int64]bool{}
	covered, missed := 0, 0
	for _, u := range stream {
		var props []int64
		if inflight[u] {
			delete(inflight, u)
			covered++
			props = h.OnPrefetchedTouch(u, nil)
		} else {
			missed++
			props = h.OnMiss(u, nil)
		}
		for _, c := range props {
			inflight[c] = true
		}
	}
	cov := float64(covered) / float64(covered+missed)
	if cov < 0.6 {
		t.Fatalf("ideal-plane coverage = %.2f (covered %d, missed %d), want >= 0.6",
			cov, covered, missed)
	}
}

func TestEfficacyRates(t *testing.T) {
	e := Efficacy{Issued: 10, Useful: 6, Useless: 3, Dropped: 2, Late: 3}
	if got := e.Accuracy(); got != 0.6 {
		t.Fatalf("Accuracy = %v, want 0.6", got)
	}
	if got := e.Coverage(24); got != 0.2 {
		t.Fatalf("Coverage(24) = %v, want 0.2 (6 covered of 6+24 accesses)", got)
	}
	if got := e.Timeliness(); got != 0.5 {
		t.Fatalf("Timeliness = %v, want 0.5", got)
	}
	var zero Efficacy
	if zero.Accuracy() != 0 || zero.Coverage(0) != 0 {
		t.Fatal("zero-value accuracy/coverage must be 0, not NaN")
	}
	if zero.Timeliness() != 1 {
		t.Fatal("an idle prefetcher is vacuously on time")
	}
}

func TestBuildRegistry(t *testing.T) {
	want := []string{"history", "leap", "none", "programmed", "readahead"}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for _, n := range want {
		p, err := Build(Spec{Policy: n}, []int64{1, 2, 3})
		if err != nil {
			t.Fatalf("Build(%q): %v", n, err)
		}
		if p.Name() != n {
			t.Fatalf("Build(%q).Name() = %q", n, p.Name())
		}
	}
	if _, err := Build(Spec{Policy: Compiled}, nil); err == nil {
		t.Fatal("Build(compiled) must fail: it is not a runtime policy")
	}
	if _, err := Build(Spec{Policy: "nope"}, nil); err == nil {
		t.Fatal("Build(unknown) must fail")
	}
}
