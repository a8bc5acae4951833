package fastswap

import (
	"testing"

	"mira/internal/apps/arraysum"
	"mira/internal/session"
	"mira/internal/sim"
)

func TestReadaheadWindow(t *testing.T) {
	ra := Readahead{N: 3}
	out := ra.OnMiss(10, nil)
	if len(out) != 3 || out[0] != 11 || out[1] != 12 || out[2] != 13 {
		t.Fatalf("readahead = %v", out)
	}
	if ra.PerMissOverhead() != 0 {
		t.Fatal("FastSwap's fault path should carry no extra overhead")
	}
}

func TestSequentialScanBenefitsFromReadahead(t *testing.T) {
	run := func(readahead int64) sim.Duration {
		w := arraysum.New(arraysum.Config{N: 1 << 14, Seed: 2})
		// Pool comfortably above the readahead window — a window larger
		// than the pool thrashes, which the model reproduces.
		spec, err := Spec(w, Options{LocalBudget: w.FullMemoryBytes() / 2})
		if err != nil {
			t.Fatal(err)
		}
		spec.Swap = session.Fixed(Readahead{N: readahead})
		s, err := session.Open(spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		st, err := s.Finish(true)
		if err != nil {
			t.Fatal(err)
		}
		return st.Time
	}
	small := run(1)
	big := run(8)
	if big >= small {
		t.Fatalf("readahead 8 (%v) not faster than readahead 1 (%v) on a sequential scan", big, small)
	}
}

func TestDefaultsApplied(t *testing.T) {
	w := arraysum.New(arraysum.Config{N: 1024, Seed: 1})
	s, err := New(w, Options{LocalBudget: w.FullMemoryBytes()})
	if err != nil {
		t.Fatal(err)
	}
	if !s.RT.HasSwap() {
		t.Fatal("no swap section created")
	}
}
