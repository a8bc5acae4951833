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

// The pool's read, write and scatter paths allocate nothing once their
// scratch is warm, on one node and on a replicated pool whose pieces cross
// stripes: the segments of a Read, Write, ReadOneSided or WriteOneSided and
// the per-node vectors of a scatter all live on the pool.
func TestWarmDataPathAllocatesNothing(t *testing.T) {
	for _, opts := range []Options{testOptions(1, 1), testOptions(4, 2)} {
		p := mustPool(t, opts)
		base, err := p.Alloc(64 << 10)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.WriteOneSided(0, base, fill(64<<10, 5)); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 2048)
		addrs := make([]uint64, 12)
		pieces := make([][]byte, 12)
		for i := range addrs {
			addrs[i], pieces[i] = base+uint64(i)*4096+3000, fill(2048, byte(i)) // every piece crosses a stripe
		}
		now := sim.Time(0)
		for _, op := range []struct {
			name string
			run  func() (sim.Time, error)
		}{
			{"ReadOneSided", func() (sim.Time, error) { return p.ReadOneSided(now, base+3000, buf) }},
			{"WriteOneSided", func() (sim.Time, error) { return p.WriteOneSided(now, base+7000, buf) }},
			{"ScatterWrite", func() (sim.Time, error) { return p.ScatterWrite(now, addrs, pieces) }},
			{"Read", func() (sim.Time, error) { return now, p.Read(base+3000, buf) }},
		} {
			run := func() {
				done, err := op.run()
				if err != nil {
					t.Fatalf("%s: %v", op.name, err)
				}
				now = done
			}
			run()
			if got := testing.AllocsPerRun(200, run); got != 0 {
				t.Errorf("%d nodes: %v allocs per warm %s, want 0", opts.Nodes, got, op.name)
			}
		}
	}
}
