package cache

import (
	"reflect"
	"testing"
	"testing/quick"
)

func mkSection(t *testing.T, cfg Config) Section {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func allStructures(lineBytes int, sizeBytes int64) []Config {
	return []Config{
		{Name: "d", Structure: Direct, LineBytes: lineBytes, SizeBytes: sizeBytes},
		{Name: "s", Structure: SetAssoc, Ways: 4, LineBytes: lineBytes, SizeBytes: sizeBytes},
		{Name: "f", Structure: FullAssoc, LineBytes: lineBytes, SizeBytes: sizeBytes},
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Structure: Direct, LineBytes: 0, SizeBytes: 1024},
		{Structure: Direct, LineBytes: 64, SizeBytes: 0},
		{Structure: SetAssoc, Ways: 0, LineBytes: 64, SizeBytes: 1024},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, cfg)
		}
	}
}

func TestConfigLines(t *testing.T) {
	c := Config{LineBytes: 128, SizeBytes: 1024}
	if c.Lines() != 8 {
		t.Fatalf("Lines = %d, want 8", c.Lines())
	}
	c = Config{LineBytes: 4096, SizeBytes: 100}
	if c.Lines() != 1 {
		t.Fatalf("tiny section Lines = %d, want 1", c.Lines())
	}
}

func TestAlignDown(t *testing.T) {
	if got := AlignDown(1000, 128); got != 896 {
		t.Fatalf("AlignDown(1000,128) = %d, want 896", got)
	}
	if got := AlignDown(896, 128); got != 896 {
		t.Fatalf("AlignDown(896,128) = %d, want 896", got)
	}
}

func TestMissThenHit(t *testing.T) {
	for _, cfg := range allStructures(64, 1024) {
		s := mkSection(t, cfg)
		if _, ok := s.Lookup(100); ok {
			t.Fatalf("%v: hit on empty section", cfg.Structure)
		}
		l, v := s.Reserve(100)
		if v.Data != nil {
			t.Fatalf("%v: victim from empty section", cfg.Structure)
		}
		if l.Tag != 64 {
			t.Fatalf("%v: tag %d, want 64", cfg.Structure, l.Tag)
		}
		l.Data[36] = 7 // addr 100 = line 64 offset 36
		got, ok := s.Lookup(100)
		if !ok {
			t.Fatalf("%v: miss after Reserve", cfg.Structure)
		}
		if got.Data[36] != 7 {
			t.Fatalf("%v: data lost", cfg.Structure)
		}
		st := s.Stats()
		if st.Hits != 1 || st.Misses != 1 {
			t.Fatalf("%v: stats %+v, want 1 hit 1 miss", cfg.Structure, st)
		}
	}
}

func TestSameLineDifferentOffsetsHit(t *testing.T) {
	for _, cfg := range allStructures(128, 1024) {
		s := mkSection(t, cfg)
		s.Reserve(0)
		for off := uint64(0); off < 128; off += 8 {
			if _, ok := s.Lookup(off); !ok {
				t.Fatalf("%v: offset %d missed within resident line", cfg.Structure, off)
			}
		}
	}
}

func TestReserveResidentPanics(t *testing.T) {
	for _, cfg := range allStructures(64, 1024) {
		s := mkSection(t, cfg)
		s.Reserve(0)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%v: Reserve of resident line did not panic", cfg.Structure)
				}
			}()
			s.Reserve(32) // same line
		}()
	}
}

func TestEvictionReturnsDirtyVictim(t *testing.T) {
	for _, cfg := range allStructures(64, 64) { // exactly one line
		s := mkSection(t, cfg)
		l, _ := s.Reserve(0)
		l.Data[0] = 0xee
		l.Dirty = true
		_, v := s.Reserve(1 << 20)
		if v.Data == nil {
			t.Fatalf("%v: no victim from full section", cfg.Structure)
		}
		if !v.Dirty || v.Tag != 0 || v.Data[0] != 0xee {
			t.Fatalf("%v: victim %+v, want dirty tag 0", cfg.Structure, v)
		}
		if s.Stats().Writebacks != 1 {
			t.Fatalf("%v: writebacks %d, want 1", cfg.Structure, s.Stats().Writebacks)
		}
	}
}

func TestDirectMappedConflict(t *testing.T) {
	// 4 slots of 64B. Lines 0 and 4 collide (both map to slot 0) while
	// slots remain free => conflict eviction.
	s := mkSection(t, Config{Structure: Direct, LineBytes: 64, SizeBytes: 256})
	s.Reserve(0)
	_, v := s.Reserve(4 * 64)
	if v.Data == nil {
		t.Fatal("conflicting line did not evict")
	}
	if !v.Conflict {
		t.Fatal("eviction not flagged as conflict despite free slots")
	}
	if s.Stats().Conflicts != 1 {
		t.Fatalf("Conflicts = %d, want 1", s.Stats().Conflicts)
	}
}

func TestFullAssocNoConflictMisses(t *testing.T) {
	// Fully-associative: any 4 distinct lines fit in a 4-line section,
	// regardless of address bits.
	s := mkSection(t, Config{Structure: FullAssoc, LineBytes: 64, SizeBytes: 256})
	addrs := []uint64{0, 4 * 64, 8 * 64, 12 * 64} // would all collide direct-mapped
	for _, a := range addrs {
		if _, v := s.Reserve(a); v.Data != nil {
			t.Fatalf("eviction inserting %d into non-full full-assoc section", a)
		}
	}
	for _, a := range addrs {
		if _, ok := s.Lookup(a); !ok {
			t.Fatalf("line %d evicted from non-full full-assoc section", a)
		}
	}
}

func TestSetAssocLRUWithinSet(t *testing.T) {
	// 2 sets x 2 ways, 64B lines (256B total). Lines 0,2,4 map to set 0.
	s := mkSection(t, Config{Structure: SetAssoc, Ways: 2, LineBytes: 64, SizeBytes: 256})
	s.Reserve(0 * 64)
	s.Reserve(2 * 64)
	s.Lookup(0 * 64) // make line 0 recent; line 2 is LRU
	_, v := s.Reserve(4 * 64)
	if v.Tag != 2*64 {
		t.Fatalf("victim tag %d, want %d (LRU)", v.Tag, 2*64)
	}
	if _, ok := s.Lookup(0); !ok {
		t.Fatal("recently-used line was evicted")
	}
}

func TestEvictionHintPreferred(t *testing.T) {
	// Full set; the evictable-marked line should be chosen even if it is
	// the most recently used.
	s := mkSection(t, Config{Structure: SetAssoc, Ways: 2, LineBytes: 64, SizeBytes: 128})
	s.Reserve(0 * 64)
	s.Reserve(2 * 64)
	s.Lookup(2 * 64) // line 2 most recent
	if !s.MarkEvictable(2 * 64) {
		t.Fatal("MarkEvictable failed on resident line")
	}
	_, v := s.Reserve(4 * 64)
	if v.Tag != 2*64 {
		t.Fatalf("victim tag %d, want %d (hinted)", v.Tag, 2*64)
	}
	if s.Stats().HintEvicts != 1 {
		t.Fatalf("HintEvicts = %d, want 1", s.Stats().HintEvicts)
	}
}

func TestFullAssocHintPreferred(t *testing.T) {
	s := mkSection(t, Config{Structure: FullAssoc, LineBytes: 64, SizeBytes: 256})
	for i := uint64(0); i < 4; i++ {
		s.Reserve(i * 64)
	}
	s.MarkEvictable(2 * 64)
	_, v := s.Reserve(100 * 64)
	if v.Tag != 2*64 {
		t.Fatalf("victim tag %d, want %d (hinted)", v.Tag, 2*64)
	}
}

func TestDrop(t *testing.T) {
	for _, cfg := range allStructures(64, 1024) {
		s := mkSection(t, cfg)
		l, _ := s.Reserve(0)
		l.Dirty = true
		v, ok := s.Drop(0)
		if !ok || !v.Dirty {
			t.Fatalf("%v: Drop = %+v, %v", cfg.Structure, v, ok)
		}
		if _, ok := s.Lookup(0); ok {
			t.Fatalf("%v: line resident after Drop", cfg.Structure)
		}
		if _, ok := s.Drop(0); ok {
			t.Fatalf("%v: Drop of absent line succeeded", cfg.Structure)
		}
	}
}

func TestForEachResident(t *testing.T) {
	for _, cfg := range allStructures(64, 1024) {
		s := mkSection(t, cfg)
		want := map[uint64]bool{0: true, 64: true, 128: true}
		for a := range want {
			s.Reserve(a)
		}
		got := map[uint64]bool{}
		s.ForEachResident(func(l *Line) { got[l.Tag] = true })
		if len(got) != len(want) {
			t.Fatalf("%v: visited %d lines, want %d", cfg.Structure, len(got), len(want))
		}
		for a := range want {
			if !got[a] {
				t.Fatalf("%v: line %d not visited", cfg.Structure, a)
			}
		}
	}
}

func TestResetStats(t *testing.T) {
	for _, cfg := range allStructures(64, 1024) {
		s := mkSection(t, cfg)
		s.Lookup(0)
		s.Reserve(0)
		s.ResetStats()
		if st := s.Stats(); st != (Stats{}) {
			t.Fatalf("%v: stats not reset: %+v", cfg.Structure, st)
		}
	}
}

func TestPeekHasNoSideEffects(t *testing.T) {
	for _, cfg := range allStructures(64, 1024) {
		s := mkSection(t, cfg)
		s.Reserve(0)
		before := s.Stats()
		s.Peek(0)
		s.Peek(999999)
		if s.Stats() != before {
			t.Fatalf("%v: Peek changed stats", cfg.Structure)
		}
	}
}

func TestFullAssocActiveInactivePromotion(t *testing.T) {
	f := newFullAssoc(Config{Structure: FullAssoc, LineBytes: 64, SizeBytes: 4 * 64})
	// First touch -> inactive; second touch -> active.
	f.Reserve(0)
	if f.lru.Len(Active) != 0 || f.lru.Len(Inactive) != 1 {
		t.Fatalf("after insert: active=%d inactive=%d", f.lru.Len(Active), f.lru.Len(Inactive))
	}
	f.Lookup(0)
	if f.lru.Len(Active) != 1 || f.lru.Len(Inactive) != 0 {
		t.Fatalf("after promote: active=%d inactive=%d", f.lru.Len(Active), f.lru.Len(Inactive))
	}
}

func TestFullAssocScanResistance(t *testing.T) {
	// A hot line that is touched repeatedly should survive a long
	// streaming scan through a small full-assoc section — that is the
	// point of the active/inactive split.
	f := newFullAssoc(Config{Structure: FullAssoc, LineBytes: 64, SizeBytes: 8 * 64})
	hot := uint64(1 << 30)
	f.Reserve(hot)
	f.Lookup(hot) // promote to active
	for i := uint64(0); i < 100; i++ {
		addr := i * 64
		if _, ok := f.Lookup(addr); !ok {
			f.Reserve(addr)
		}
		f.Lookup(hot)
	}
	if _, ok := f.Peek(hot); !ok {
		t.Fatal("hot line evicted by streaming scan")
	}
}

// Property: for every structure, after any access sequence the number of
// resident lines never exceeds the configured capacity.
func TestCapacityInvariantProperty(t *testing.T) {
	f := func(addrsRaw []uint16, structPick uint8) bool {
		cfgs := allStructures(64, 4*64)
		cfg := cfgs[int(structPick)%len(cfgs)]
		s, err := New(cfg)
		if err != nil {
			return false
		}
		for _, a := range addrsRaw {
			addr := uint64(a) * 8
			if _, ok := s.Lookup(addr); !ok {
				s.Reserve(addr)
			}
		}
		resident := 0
		s.ForEachResident(func(*Line) { resident++ })
		return resident <= cfg.Lines()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a Lookup immediately after Reserve always hits, for any address
// and structure.
func TestReserveThenLookupProperty(t *testing.T) {
	f := func(addr uint64, structPick uint8) bool {
		cfgs := allStructures(128, 16*128)
		cfg := cfgs[int(structPick)%len(cfgs)]
		s, err := New(cfg)
		if err != nil {
			return false
		}
		addr %= 1 << 40
		s.Reserve(addr)
		_, ok := s.Lookup(addr)
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStructureString(t *testing.T) {
	if Direct.String() != "direct" || SetAssoc.String() != "set-assoc" || FullAssoc.String() != "full-assoc" {
		t.Fatal("Structure.String misbehaves")
	}
	if Structure(99).String() == "" {
		t.Fatal("unknown structure produced empty string")
	}
}

func TestSetAssocWaysClamp(t *testing.T) {
	// Ways larger than the line count must not panic or produce zero
	// sets.
	s := newSetAssoc(Config{Structure: SetAssoc, Ways: 16, LineBytes: 64, SizeBytes: 2 * 64})
	if s.nSets < 1 {
		t.Fatalf("nSets = %d", s.nSets)
	}
	s.Reserve(0)
	s.Reserve(64)
	if _, ok := s.Lookup(0); !ok {
		t.Fatal("line lost in clamped set-assoc section")
	}
}

// TestTouchRefreshesRecency checks Touch on all three structures: on a
// set-associative or fully-associative section it makes the touched line the
// most recently used — the next victim is the other line — and counts no hit;
// on a direct-mapped section, which has no victim choice, it changes nothing.
// Touching an absent line changes nothing anywhere.
func TestTouchRefreshesRecency(t *testing.T) {
	for _, cfg := range allStructures(64, 128) {
		cfg.Ways = 2
		t.Run(cfg.Structure.String(), func(t *testing.T) {
			if cfg.Structure == Direct {
				d := newDirect(cfg)
				d.Reserve(0)
				d.Reserve(64)
				before := *d
				d.Touch(0)
				d.Touch(64)
				d.Touch(1 << 20)
				if !reflect.DeepEqual(before, *d) {
					t.Fatal("Touch changed a direct-mapped section")
				}
				return
			}
			for _, touch := range []bool{false, true} {
				s := mkSection(t, cfg)
				s.Reserve(0) // the least recently used line
				s.Reserve(64)
				before := s.Stats()
				s.Touch(1 << 20) // absent: no effect
				if touch {
					s.Touch(0)
				}
				if s.Stats() != before {
					t.Fatalf("touch %v: stats %+v, want %+v", touch, s.Stats(), before)
				}
				_, v := s.Reserve(128)
				want := uint64(0)
				if touch {
					want = 64
				}
				if v.Tag != want {
					t.Fatalf("touch %v: victim %d, want %d", touch, v.Tag, want)
				}
			}
		})
	}
}
