//go:build !race

package farmem

import "testing"

// The far node assembles every gather reply in the one buffer it owns: after
// the first gather of a size, serving one allocates nothing.
func TestWarmGatherAllocatesNothing(t *testing.T) {
	n := newTestNode()
	base := mustAlloc(t, n, 1<<16)
	fill(t, n, base, 1<<16, 7)
	addrs := make([]uint64, 16)
	sizes := make([]int, 16)
	for i := range addrs {
		addrs[i], sizes[i] = base+uint64(i)*4096, 4096
	}
	gather := func() {
		data, err := n.Gather(addrs, sizes)
		if err != nil || len(data) != 16*4096 || data[len(data)-1] != 7 {
			t.Fatalf("gather: %d bytes, %v", len(data), err)
		}
	}
	gather()
	if got := testing.AllocsPerRun(200, gather); got != 0 {
		t.Errorf("%v allocs per warm Gather, want 0", got)
	}
	// A smaller gather fits the reply it already has.
	small := func() {
		if _, err := n.Gather(addrs[:2], sizes[:2]); err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(200, small); got != 0 {
		t.Errorf("%v allocs per smaller Gather, want 0", got)
	}
}

// Once a region has its checksum table, a whole-granule ReadSum allocates
// nothing: neither when the table answers (a hit) nor when a write emptied
// the granule's entry and the read hashes it again (a miss).
func TestWarmGranuleReadAllocatesNothing(t *testing.T) {
	n := newTestNode()
	base := mustAlloc(t, n, 4*GranuleBytes)
	addr := base + 2*GranuleBytes
	buf := make([]byte, GranuleBytes)
	one := []byte{0}
	read := func() {
		if _, err := n.ReadSum(addr, buf); err != nil {
			t.Fatal(err)
		}
	}
	miss := func() {
		one[0]++
		if err := n.Write(addr+100, one); err != nil {
			t.Fatal(err)
		}
		read()
	}
	read()
	for name, run := range map[string]func(){"table hit": read, "table miss": miss} {
		if got := testing.AllocsPerRun(200, run); got != 0 {
			t.Errorf("%v allocs per warm whole-granule ReadSum (%s), want 0", got, name)
		}
	}
}
