//go:build !race

package prefetch

import "testing"

// TestSlidingWindowAllocatesNothing: a sliding window never reallocates — Leap's
// silent misses allocate nothing, and History's context ring stops growing
// once its table is full.
func TestSlidingWindowAllocatesNothing(t *testing.T) {
	leap := NewLeap(32, 8)
	unit := int64(0)
	noisy := func() {
		for i := int64(0); i < 256; i++ {
			unit += 1 + i%5 // no majority delta: no proposal slice either
			leap.OnMiss(unit)
		}
	}
	noisy()
	if n := testing.AllocsPerRun(10, noisy); n != 0 {
		t.Errorf("256 silent Leap misses allocate %v times, want 0", n)
	}

	var r ring
	for i := uint64(0); i < 100; i++ {
		r.push(i)
	}
	slide := func() {
		for i := uint64(0); i < 1000; i++ {
			r.pop()
			r.push(i)
		}
	}
	if n := testing.AllocsPerRun(10, slide); n != 0 {
		t.Errorf("a sliding ring allocates %v times per 1000 slides, want 0", n)
	}
}
