//go:build !race

package transport

import (
	"testing"

	"mira/internal/farmem"
	"mira/internal/netmodel"
	"mira/internal/sim"
)

// A gather on a warm link allocates nothing, either flavor: the far node
// assembles the reply in the buffer it owns, the transport checks and prices
// it in place and hands the same bytes on. The degraded flavor — every piece
// served from the queued write-backs — answers from the transport's own.
func TestWarmGatherAllocatesNothing(t *testing.T) {
	node := farmem.NewNode(farmem.NodeConfig{Capacity: 1 << 22, CPUSlowdown: 1})
	tr := New(node, netmodel.DefaultConfig())
	base, err := node.Alloc(1 << 16)
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]uint64, 16)
	sizes := make([]int, 16)
	for i := range addrs {
		addrs[i], sizes[i] = base+uint64(i)*4096, 4096
	}
	now := sim.Time(0)
	for name, gather := range map[string]func(sim.Time, []uint64, []int) ([]byte, sim.Time, error){
		"GatherOneSided": tr.GatherOneSided,
		"GatherTwoSided": tr.GatherTwoSided,
	} {
		run := func() {
			data, done, err := gather(now, addrs, sizes)
			if err != nil || len(data) != 16*4096 {
				t.Fatalf("%s: %d bytes, %v", name, len(data), err)
			}
			now = done
		}
		run()
		if got := testing.AllocsPerRun(200, run); got != 0 {
			t.Errorf("%v allocs per warm %s, want 0", got, name)
		}
	}

	// Degraded: both pieces are covered by queued write-backs.
	tr.enqueueWrite(addrs[0], make([]byte, 4096))
	tr.enqueueWrite(addrs[1], make([]byte, 4096))
	degraded := func() {
		if data, ok := tr.gatherQueued(addrs[:2], sizes[:2]); !ok || len(data) != 8192 {
			t.Fatalf("gather from the overlay: %d bytes, %v", len(data), ok)
		}
	}
	degraded()
	if got := testing.AllocsPerRun(200, degraded); got != 0 {
		t.Errorf("%v allocs per warm overlay gather, want 0", got)
	}
}
