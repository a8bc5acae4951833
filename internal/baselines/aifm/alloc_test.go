//go:build !race

package aifm

import (
	"testing"

	"mira/internal/rt"
	"mira/internal/sim"
)

// TestAIFMHitAllocatesNothing: a dereference that hits allocates nothing.
func TestAIFMHitAllocatesNothing(t *testing.T) {
	r, err := New(newTiny(), Options{LocalBudget: 4096})
	if err != nil {
		t.Fatal(err)
	}
	clk := sim.NewClock(0)
	buf := make([]byte, 8)
	pass := func() {
		for el := int64(0); el < 32; el++ {
			if err := r.Access(clk, "a", el, fld(), buf, el%4 == 0, rt.AccessOpts{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	pass()
	if n := testing.AllocsPerRun(20, pass); n != 0 {
		t.Errorf("32 hits allocate %v times, want 0", n)
	}
}

// TestAIFMSteadyStateMissAllocatesNothing: once the cache is full a miss
// takes the entry and buffer of an element evicted before it, so the cache
// allocates nothing; a dirty eviction's write-back costs the one size
// vector transport.ScatterTwoSided builds per message.
func TestAIFMSteadyStateMissAllocatesNothing(t *testing.T) {
	r, err := New(newTiny(), Options{LocalBudget: 64*8 + 16*8}) // metadata + 16 elements
	if err != nil {
		t.Fatal(err)
	}
	clk := sim.NewClock(0)
	buf := make([]byte, 8)
	el := int64(0)
	sweep := func(write bool) func() {
		return func() {
			for i := 0; i < 64; i++ {
				el = (el + 1) % 64
				if err := r.Access(clk, "a", el, fld(), buf, write, rt.AccessOpts{}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	sweep(false)()
	if _, _, misses, evictions, _ := r.Stats(); misses != 64 || evictions != 48 {
		t.Fatalf("warm-up made %d misses and %d evictions, want 64 and 48", misses, evictions)
	}
	if n := testing.AllocsPerRun(5, sweep(false)); n != 0 {
		t.Errorf("64 steady-state misses with clean evictions allocate %v times, want 0", n)
	}
	sweep(true)()
	if n := testing.AllocsPerRun(5, sweep(true)); n > 64 {
		t.Errorf("64 steady-state misses with dirty evictions allocate %v times, want at most one per write-back", n)
	}
}
