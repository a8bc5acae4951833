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

// TestReleasedStorageIsReused: a set-associative section made after Release
// takes the released slot array and line buffers, and a recycled section is
// indistinguishable from a fresh one — empty, every buffer it hands out
// zeroed — so the same operations give the same stats and victims.
func TestReleasedStorageIsReused(t *testing.T) {
	cfg := Config{Name: "span", Structure: SetAssoc, Ways: 4, LineBytes: 8, Stride: 64, SizeBytes: 64 * 8}
	run := func(s Section) (Stats, [][]byte) {
		var victims [][]byte
		for i := uint64(0); i < 200; i++ {
			l, v := s.Reserve(i * 64 * 3)
			if !bytes.Equal(l.Data, make([]byte, 8)) {
				t.Fatal("Reserve returned a line that is not zeroed")
			}
			l.Data[0], l.Dirty = byte(i), i%2 == 0
			if v.Data != nil {
				victims = append(victims, append([]byte(nil), v.Data...))
			}
		}
		return s.Stats(), victims
	}
	slotCache.mu.Lock()
	slotCache.spare, slotCache.held = nil, 0 // what earlier tests released
	slotCache.mu.Unlock()
	fresh := mkSection(t, cfg)
	wantStats, wantVictims := run(fresh)
	array := &fresh.(*setAssoc).slots[0]
	Release(fresh)
	fresh.ForEachResident(func(*Line) { t.Fatal("a released section still holds lines") })
	again := mkSection(t, cfg)
	if &again.(*setAssoc).slots[0] != array {
		t.Error("the new section did not take the released slot array")
	}
	gotStats, gotVictims := run(again)
	if gotStats != wantStats || len(gotVictims) != len(wantVictims) {
		t.Fatalf("recycled section: %+v, %d victims; fresh: %+v, %d", gotStats, len(gotVictims), wantStats, len(wantVictims))
	}
	for i := range gotVictims {
		if !bytes.Equal(gotVictims[i], wantVictims[i]) {
			t.Fatalf("victim %d differs: %x vs %x", i, gotVictims[i], wantVictims[i])
		}
	}
}

// TestConcurrentReleaseRace makes and releases set-associative sections from
// several goroutines at once, as sessions closing in parallel do: the free
// list is the one piece of process-wide cache state.
func TestConcurrentReleaseRace(t *testing.T) {
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 50; i++ {
				s, err := New(Config{Name: "r", Structure: SetAssoc, Ways: 4, LineBytes: 8, Stride: 64, SizeBytes: int64(64+i) * 8})
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
