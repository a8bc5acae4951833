//go:build !race

package cluster

import (
	"testing"

	"mira/internal/sim"
)

// A gather spanning the pool allocates nothing once its scratch is warm: the
// segment list, the per-node index lists, the message vectors and the reply
// all live on the pool, and every node link answers from a reply its far
// node owns.
func TestWarmGatherAllocatesNothing(t *testing.T) {
	p := mustPool(t, testOptions(4, 2))
	base, err := p.Alloc(64 << 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.WriteOneSided(0, base, fill(64<<10, 3)); err != nil {
		t.Fatal(err)
	}
	addrs := make([]uint64, 12)
	sizes := make([]int, 12)
	for i := range addrs {
		addrs[i], sizes[i] = base+uint64(i)*4096+3000, 2048 // every piece crosses a stripe
	}
	now := sim.Time(0)
	for _, oneSided := range []bool{true, false} {
		run := func() {
			data, done, err := p.gatherVec(now, addrs, sizes, oneSided)
			if err != nil || len(data) != 12*2048 {
				t.Fatalf("gatherVec: %d bytes, %v", len(data), err)
			}
			now = done
		}
		run()
		if got := testing.AllocsPerRun(200, run); got != 0 {
			t.Errorf("%v allocs per warm gatherVec (one-sided %v), want 0", got, oneSided)
		}
	}
}
