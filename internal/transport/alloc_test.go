//go:build !race

package transport

import (
	"testing"

	"mira/internal/farmem"
	"mira/internal/netmodel"
	"mira/internal/sim"
)

// A gather or a scatter on a warm link allocates nothing, either flavor: the
// far node assembles a gather's reply in the buffer it owns, the transport
// checks and prices it in place and hands the same bytes on, and a scatter
// lists its piece sizes in the transport's scratch. The degraded gather —
// every piece served from the queued write-backs — answers from the
// transport's own buffer.
func TestWarmGatherAllocatesNothing(t *testing.T) {
	node := farmem.NewNode(farmem.NodeConfig{Capacity: 1 << 22, CPUSlowdown: 1})
	tr := New(node, netmodel.DefaultConfig())
	base, err := node.Alloc(1 << 16)
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]uint64, 16)
	sizes := make([]int, 16)
	pieces := make([][]byte, 16)
	for i := range addrs {
		addrs[i], sizes[i], pieces[i] = base+uint64(i)*4096, 4096, make([]byte, 4096)
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
	for name, scatter := range map[string]func(sim.Time, []uint64, [][]byte) (sim.Time, error){
		"ScatterWrite":    tr.ScatterWrite,
		"ScatterTwoSided": tr.ScatterTwoSided,
	} {
		run := func() {
			done, err := scatter(now, addrs, pieces)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			now = done
		}
		run()
		if got := testing.AllocsPerRun(200, run); got != 0 {
			t.Errorf("%v allocs per warm %s, want 0", got, name)
		}
	}

	// Degraded: both pieces are covered by queued write-backs.
	tr.mu.Lock()
	tr.enqueueWriteLocked(addrs[0], make([]byte, 4096))
	tr.enqueueWriteLocked(addrs[1], make([]byte, 4096))
	tr.mu.Unlock()
	degraded := func() {
		if data, done, err := tr.GatherTwoSided(now, addrs[:2], sizes[:2]); err != nil || len(data) != 8192 || done != now {
			t.Fatalf("gather from the overlay: %d bytes at %v, %v", len(data), done, err)
		}
	}
	degraded()
	if got := testing.AllocsPerRun(200, degraded); got != 0 {
		t.Errorf("%v allocs per warm overlay gather, want 0", got)
	}
}

// A one-sided read of a whole granule allocates nothing, whether the far
// node answers its checksum from the region's table (the granule was read
// before and not written since) or hashes it again (a write in between).
func TestWarmGranuleReadAllocatesNothing(t *testing.T) {
	node := farmem.NewNode(farmem.NodeConfig{Capacity: 1 << 22, CPUSlowdown: 1})
	tr := New(node, netmodel.DefaultConfig())
	base, err := node.Alloc(4 * farmem.GranuleBytes)
	if err != nil {
		t.Fatal(err)
	}
	addr := base + farmem.GranuleBytes
	buf := make([]byte, farmem.GranuleBytes)
	page := make([]byte, farmem.GranuleBytes)
	now := sim.Time(0)
	read := func() {
		done, err := tr.ReadOneSided(now, addr, buf)
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	hit := read
	miss := func() {
		page[0]++
		done, err := tr.WriteOneSided(now, addr, page)
		if err != nil {
			t.Fatal(err)
		}
		now = done
		read()
		if buf[0] != page[0] {
			t.Fatalf("read %#x after writing %#x", buf[0], page[0])
		}
	}
	read()
	for name, run := range map[string]func(){"table hit": hit, "table miss": miss} {
		if got := testing.AllocsPerRun(200, run); got != 0 {
			t.Errorf("%v allocs per warm granule read (%s), want 0", got, name)
		}
	}
}
