package cache

import (
	"bytes"
	"testing"
	"unsafe"
)

// TestSetStrideUsesEverySet fills a set-associative section of 8 B lines with
// one line per 128 B element — a field span each — for exactly as many
// elements as it has lines. Indexed by the element stride, every set takes
// its ways' worth and nothing conflicts; indexed by the line, the tags step
// 16 lines at a time, only one set in 16 is used, and most fills evict.
func TestSetStrideUsesEverySet(t *testing.T) {
	const lines, stride = 256, 128
	fill := func(cfg Config) Stats {
		s := mkSection(t, cfg)
		for i := uint64(0); i < lines; i++ {
			s.Reserve(0x10000 + i*stride)
		}
		for i := uint64(0); i < lines; i++ {
			s.Lookup(0x10000 + i*stride)
		}
		return s.Stats()
	}
	cfg := Config{Name: "span", Structure: SetAssoc, Ways: 4, LineBytes: 8, Stride: stride, SizeBytes: lines * 8}
	if st := fill(cfg); st.Conflicts != 0 || st.Evictions != 0 || st.Hits != lines {
		t.Errorf("by stride: %+v, want every line resident without a conflict", st)
	}
	cfg.Stride = 0
	if st := fill(cfg); st.Conflicts < lines/2 {
		t.Errorf("by line: %+v, want the 1-in-16 set use to conflict", st)
	}
}

func TestStrideValidation(t *testing.T) {
	for _, stride := range []int{-8, 12} {
		if _, err := New(Config{Name: "s", Structure: SetAssoc, Ways: 4, LineBytes: 8, Stride: stride, SizeBytes: 64}); err == nil {
			t.Errorf("Stride %d accepted beside 8 B lines", stride)
		}
	}
}

// TestLineIs56Bytes: a section of narrow lines holds a slot per element, so
// the slot's layout is part of the host footprint.
func TestLineIs56Bytes(t *testing.T) {
	if n := unsafe.Sizeof(Line{}); n != 56 {
		t.Errorf("cache.Line is %d B, want 56", n)
	}
}

// baseOf is the base a section of any structure embeds.
func baseOf(s Section) *base {
	switch s := s.(type) {
	case *direct:
		return &s.base
	case *setAssoc:
		return &s.base
	case *fullAssoc:
		return &s.base
	}
	panic("unknown structure")
}

// TestReleasedStorageIsReused: a section of any structure made after Release
// takes the released slot array and line buffers — a 4 KiB-line
// fully-associative section (the swap pool) included — and a recycled
// section is indistinguishable from a fresh one: empty, every buffer it hands
// out zeroed, so the same operations give the same stats and victims.
// Releasing a section twice hands its storage over once.
func TestReleasedStorageIsReused(t *testing.T) {
	cfgs := append(allStructures(8, 64*8),
		Config{Name: "span", Structure: SetAssoc, Ways: 4, LineBytes: 8, Stride: 64, SizeBytes: 64 * 8},
		Config{Name: "swap", Structure: FullAssoc, LineBytes: 4096, SizeBytes: 4 * 4096})
	for _, cfg := range cfgs {
		zero, ff := make([]byte, cfg.LineBytes), bytes.Repeat([]byte{0xFF}, cfg.LineBytes)
		// run reserves 200 lines, leaves each all 0xFF but its first byte,
		// and recycles every dirty victim: the buffers it hands out are the
		// section's own from the start.
		run := func(s Section, bufs map[*byte]bool) (Stats, [][]byte) {
			var victims [][]byte
			for i := uint64(0); i < 200; i++ {
				l, v := s.Reserve(i * uint64(cfg.LineBytes) * 3)
				if !bytes.Equal(l.Data, zero) {
					t.Fatalf("%s: Reserve returned a line that is not zeroed", cfg.Name)
				}
				bufs[&l.Data[0]] = true
				copy(l.Data, ff)
				l.Data[0], l.Dirty = byte(i), i%2 == 0
				if v.Data != nil {
					victims = append(victims, append([]byte(nil), v.Data...))
				}
				if v.Dirty {
					s.Recycle(v.Data)
				}
			}
			return s.Stats(), victims
		}
		slotCache.mu.Lock()
		slotCache.spare, slotCache.bufs, slotCache.held = nil, map[int][][]byte{}, 0 // what earlier tests released
		slotCache.mu.Unlock()
		fresh := mkSection(t, cfg)
		made := map[*byte]bool{}
		wantStats, wantVictims := run(fresh, made)
		array := &baseOf(fresh).slots[0]
		Release(fresh)
		Release(fresh)
		if n := len(slotCache.spare); n != 1 {
			t.Fatalf("%s: free list holds %d entries after releasing one section twice", cfg.Name, n)
		}
		fresh.ForEachResident(func(*Line) { t.Fatalf("%s: a released section still holds lines", cfg.Name) })
		again := mkSection(t, cfg)
		if &baseOf(again).slots[0] != array {
			t.Errorf("%s: the new section did not take the released slot array", cfg.Name)
		}
		used := map[*byte]bool{}
		gotStats, gotVictims := run(again, used)
		for b := range used {
			if !made[b] {
				t.Errorf("%s: the new section made a buffer while the free list held spares", cfg.Name)
				break
			}
		}
		if gotStats != wantStats || len(gotVictims) != len(wantVictims) {
			t.Fatalf("%s: recycled section: %+v, %d victims; fresh: %+v, %d", cfg.Name, gotStats, len(gotVictims), wantStats, len(wantVictims))
		}
		for i := range gotVictims {
			if !bytes.Equal(gotVictims[i], wantVictims[i]) {
				t.Fatalf("%s: victim %d differs: %x vs %x", cfg.Name, i, gotVictims[i], wantVictims[i])
			}
		}
	}
}

// TestConcurrentReleaseRace makes and releases sections of every structure
// from several goroutines at once, as sessions closing in parallel do: the
// free list is the one piece of process-wide cache state.
func TestConcurrentReleaseRace(t *testing.T) {
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 50; i++ {
				s, err := New(Config{Name: "r", Structure: Structure(i % 3), Ways: 4, LineBytes: 8, Stride: 64, SizeBytes: int64(64+i) * 8})
				if err != nil {
					t.Error(err)
					return
				}
				for a := uint64(0); a < 300; a++ {
					if _, ok := s.Lookup(a * 64); !ok {
						s.Reserve(a * 64)
					}
				}
				Release(s)
			}
		}()
	}
	for g := 0; g < 4; g++ {
		<-done
	}
}
