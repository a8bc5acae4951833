package leap

import (
	"testing"

	"mira/internal/apps/arraysum"
	"mira/internal/apps/graphtraverse"
	"mira/internal/prefetch"
	"mira/internal/session"
	"mira/internal/sim"
	"mira/internal/workload"
)

func TestMajorityTrendDetected(t *testing.T) {
	p := prefetch.NewLeap(8, 4)
	// Feed a clean +1 stride; after the window warms up the prefetcher
	// must follow it.
	var out []int64
	for pg := int64(0); pg < 12; pg++ {
		out = p.OnMiss(pg, nil)
	}
	if len(out) != 4 {
		t.Fatalf("prefetch depth %d, want 4", len(out))
	}
	for i, pg := range out {
		if pg != 11+int64(i+1) {
			t.Fatalf("prefetch[%d] = %d, want %d", i, pg, 11+i+1)
		}
	}
}

func TestStrideTrend(t *testing.T) {
	p := prefetch.NewLeap(8, 2)
	var out []int64
	for i := int64(0); i < 12; i++ {
		out = p.OnMiss(i*3, nil)
	}
	if len(out) != 2 || out[0] != 33+3 || out[1] != 33+6 {
		t.Fatalf("stride-3 prefetch = %v", out)
	}
}

func TestNoMajorityNoPrefetch(t *testing.T) {
	p := prefetch.NewLeap(8, 4)
	// Alternating deltas of +5 and -3: no majority.
	pages := []int64{0, 5, 2, 7, 4, 9, 6, 11, 8, 13, 10}
	var out []int64
	for _, pg := range pages {
		out = p.OnMiss(pg, nil)
	}
	if len(out) != 0 {
		t.Fatalf("prefetched %v despite no majority trend", out)
	}
}

func TestInterleavedPatternDefeatsLeap(t *testing.T) {
	// The paper's point (Fig. 15): an interleaved sequential+random fault
	// stream has no global majority, so Leap cannot prefetch.
	p := prefetch.NewLeap(16, 4)
	rng := sim.NewRNG(3)
	var out []int64
	seq := int64(0)
	for i := 0; i < 64; i++ {
		if i%2 == 0 {
			seq++
			out = p.OnMiss(seq, nil)
		} else {
			out = p.OnMiss(1000+int64(rng.Intn(500)), nil)
		}
		if len(out) > 0 {
			t.Fatalf("iteration %d: prefetched %v from interleaved stream", i, out)
		}
	}
}

func open(w workload.Workload, opts Options) (*session.Session, error) {
	spec, err := Spec(w, opts)
	if err != nil {
		return nil, err
	}
	return session.Open(spec)
}

func TestLeapEndToEndCorrect(t *testing.T) {
	// Correctness on the graph example (whose interleaved faults defeat
	// Leap's trend detector — no prefetches expected there).
	w := graphtraverse.New(graphtraverse.Config{Edges: 1024, Nodes: 512, Passes: 1, Seed: 4})
	s, err := open(w, Options{LocalBudget: w.FullMemoryBytes() / 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Finish(true); err != nil {
		t.Fatal(err)
	}
}

func TestLeapPrefetchesPureSequentialStream(t *testing.T) {
	// A pure sequential scan has a clean +1 page trend: Leap must
	// prefetch along it.
	w := arraysum.New(arraysum.Config{N: 1 << 14, Seed: 2})
	s, err := open(w, Options{LocalBudget: w.FullMemoryBytes() / 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.RT.SwapStats().Prefetches == 0 {
		t.Fatal("Leap issued no prefetches on a pure sequential stream")
	}
}

func TestLocalObjectsOverBudget(t *testing.T) {
	w := graphtraverse.New(graphtraverse.Config{Edges: 128, Nodes: 64, Passes: 1, Seed: 1})
	if _, err := open(w, Options{LocalBudget: 0}); err == nil {
		t.Fatal("zero budget accepted")
	}
}
