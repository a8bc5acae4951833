//go:build !race

package offload

import "testing"

// TestStagingAllocatesNothing: on a warm arena, staging a store, re-storing
// it and reading it back allocate nothing.
func TestStagingAllocatesNothing(t *testing.T) {
	var st staging
	val := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	var buf [8]byte
	pass := func() {
		st.exts, st.arena = st.exts[:0], st.arena[:0]
		for i := uint64(0); i < 512; i++ {
			addr := 4096 + i*8 + i/64*8 // a gap every 64 stores: several extents
			st.store(addr, val)
			st.store(addr, val[:4])
			if st.overlay(addr, buf[:]) != 8 {
				t.Fatal("a staged store is not wholly readable")
			}
		}
	}
	pass()
	if n := testing.AllocsPerRun(10, pass); n != 0 {
		t.Errorf("staging on a warm arena allocates %v times per pass, want 0", n)
	}
	if len(st.exts) != 8 {
		t.Errorf("512 ascending stores with 7 gaps made %d extents, want 8", len(st.exts))
	}
}
