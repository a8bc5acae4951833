//go:build !race

package prefetch

import "testing"

// TestSlidingWindowAllocatesNothing: a sliding window never reallocates —
// Leap's window slides in place, and once History's tables are full a new
// context takes the oldest one's slot.
func TestSlidingWindowAllocatesNothing(t *testing.T) {
	leap := NewLeap(32, 8)
	unit := int64(0)
	noisy := func() {
		for i := int64(0); i < 256; i++ {
			unit += 1 + i%5 // no majority delta: no proposal either
			leap.OnMiss(unit, nil)
		}
	}
	noisy()
	if n := testing.AllocsPerRun(10, noisy); n != 0 {
		t.Errorf("256 silent Leap misses allocate %v times, want 0", n)
	}

	h := NewHistory(HistoryConfig{MaxEntries: 64})
	var out []int64
	churn := func() {
		for i := 0; i < 1000; i++ {
			unit += 1 + int64(i*i%97) // a new context almost every miss
			out = h.OnMiss(unit, out[:0])
		}
	}
	churn()
	if n := len(h.tables[2].slab); n != 64 {
		t.Fatalf("order-3 table holds %d contexts after the warm-up, want it full at 64", n)
	}
	if n := testing.AllocsPerRun(10, churn); n != 0 {
		t.Errorf("1000 misses evicting from full History tables allocate %v times, want 0", n)
	}
}

// TestProposingIntoReusedOutAllocatesNothing: every policy appends its
// proposals to the out it is handed, so a plane reusing one scratch
// allocates nothing per miss or touch.
func TestProposingIntoReusedOutAllocatesNothing(t *testing.T) {
	program := make([]int64, 1<<12)
	for i := range program {
		program[i] = int64(i)
	}
	out := make([]int64, 0, 64)
	for _, p := range []Policy{None{}, Readahead{N: 8}, NewLeap(8, 8), NewHistory(HistoryConfig{}), NewProgrammed(program, 16)} {
		unit := int64(0)
		proposed := 0
		stride := func() {
			for i := 0; i < 100; i++ {
				unit = (unit + 1) % int64(len(program))
				out = p.OnMiss(unit, out[:0])
				if tu, ok := p.(StreamTopUp); ok {
					out = tu.OnPrefetchedTouch(unit+1, out)
				}
				proposed += len(out)
			}
		}
		stride()
		if _, silent := p.(None); !silent && proposed == 0 {
			t.Fatalf("%s proposed nothing on a stride: the test measures no proposal", p.Name())
		}
		if n := testing.AllocsPerRun(20, stride); n != 0 {
			t.Errorf("%s: %v allocs per 100 misses into a reused out, want 0", p.Name(), n)
		}
	}
}
