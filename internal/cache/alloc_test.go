//go:build !race

package cache

import "testing"

// A full section makes no buffer, slot or list element per Reserve: the
// victim's buffer is reused (clean) or comes back through Recycle (dirty).
func TestReserveWithEvictionAllocatesNothing(t *testing.T) {
	for _, cfg := range allStructures(64, 64*64) {
		s := mkSection(t, cfg)
		next := uint64(0)
		reserve := func() {
			l, v := s.Reserve(next)
			next += 64
			l.Dirty = next%128 == 0
			if v.Dirty {
				s.Recycle(v.Data)
			}
		}
		for i := 0; i < 4*64; i++ {
			reserve()
		}
		evictions := s.Stats().Evictions
		if got := testing.AllocsPerRun(1000, reserve); got != 0 {
			t.Errorf("%v: %v allocs per Reserve with eviction, want 0", cfg.Structure, got)
		}
		if s.Stats().Evictions-evictions < 1000 {
			t.Fatalf("%v: Reserve did not evict", cfg.Structure)
		}
	}
}
