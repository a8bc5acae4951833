package rt

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"

	"mira/internal/cache"
	"mira/internal/farmem"
	"mira/internal/ir"
	"mira/internal/sim"
)

func TestRemotePtrRoundtrip(t *testing.T) {
	f := func(section uint16, offRaw uint64) bool {
		off := offRaw & offsetMask
		p := MakePtr(section, off)
		return p.Section() == section && p.Offset() == off
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRemotePtrLocalConvention(t *testing.T) {
	p := MakePtr(LocalSection, 0x1234)
	if !p.IsLocal() {
		t.Fatal("section-0 pointer not local")
	}
	q := MakePtr(3, 0x1234)
	if q.IsLocal() {
		t.Fatal("section-3 pointer claimed local")
	}
	// A plain local address reinterpreted as a RemotePtr must read as
	// local (its high 16 bits are zero) — the paper's convention.
	if !RemotePtr(0x7fff_1234_5678).IsLocal() {
		t.Fatal("plain address not recognized as local")
	}
}

func TestRemotePtrOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("48-bit overflow did not panic")
		}
	}()
	MakePtr(1, 1<<48)
}

func testProgram() *ir.Program {
	b := ir.NewBuilder("rttest")
	b.Object("items", 64, 128,
		ir.F("key", 0, 8),
		ir.F("val", 8, 8),
		ir.F("pad", 16, 48))
	b.FloatArray("vec", 512)
	b.Func("main")
	return b.MustProgram()
}

// mkRuntime builds a runtime with items in a set-assoc section and vec in
// swap.
func mkRuntime(t *testing.T, mutate func(*Config)) (*Runtime, *sim.Clock) {
	t.Helper()
	cfg := Config{
		LocalBudget: 1 << 20,
		SwapPool:    64 << 10,
		Sections: []SectionSpec{{
			Cache: cache.Config{Name: "items", Structure: cache.SetAssoc, Ways: 4, LineBytes: 128, SizeBytes: 16 << 10},
		}},
		Placements: map[string]Placement{
			"items": {Kind: PlaceSection, Section: 0},
			"vec":   {Kind: PlaceSwap},
		},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	node := farmem.NewNode(farmem.NodeConfig{Capacity: 1 << 26, CPUSlowdown: 1})
	r, err := New(cfg, node)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Bind(testProgram()); err != nil {
		t.Fatal(err)
	}
	return r, sim.NewClock(0)
}

func fld(off, sz int) ir.Field { return ir.Field{Offset: off, Bytes: sz} }

func TestConfigValidateRejectsOverBudget(t *testing.T) {
	cfg := Config{
		LocalBudget: 1024,
		SwapPool:    512,
		Sections: []SectionSpec{{
			Cache: cache.Config{Structure: cache.Direct, LineBytes: 64, SizeBytes: 1024},
		}},
	}
	if err := cfg.Validate(); err == nil {
		t.Fatal("over-budget carve-up accepted")
	}
}

func TestAccessRoundtripSection(t *testing.T) {
	r, clk := mkRuntime(t, nil)
	w := make([]byte, 8)
	binary.LittleEndian.PutUint64(w, 0xdeadbeef)
	if err := r.Access(clk, "items", 5, fld(8, 8), w, true, AccessOpts{}); err != nil {
		t.Fatal(err)
	}
	g := make([]byte, 8)
	if err := r.Access(clk, "items", 5, fld(8, 8), g, false, AccessOpts{}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g, w) {
		t.Fatalf("read %x, want %x", g, w)
	}
}

func TestAccessRoundtripSwap(t *testing.T) {
	r, clk := mkRuntime(t, nil)
	w := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	if err := r.Access(clk, "vec", 100, fld(0, 8), w, true, AccessOpts{}); err != nil {
		t.Fatal(err)
	}
	g := make([]byte, 8)
	if err := r.Access(clk, "vec", 100, fld(0, 8), g, false, AccessOpts{}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g, w) {
		t.Fatalf("read %x, want %x", g, w)
	}
}

func TestAccessOutOfRange(t *testing.T) {
	r, clk := mkRuntime(t, nil)
	if err := r.Access(clk, "items", 128, fld(0, 8), make([]byte, 8), false, AccessOpts{}); err == nil {
		t.Fatal("out-of-range element accepted")
	}
	if err := r.Access(clk, "ghost", 0, fld(0, 8), make([]byte, 8), false, AccessOpts{}); err == nil {
		t.Fatal("unknown object accepted")
	}
}

func TestInitAndDump(t *testing.T) {
	r, clk := mkRuntime(t, nil)
	data := make([]byte, 64*128)
	for i := range data {
		data[i] = byte(i)
	}
	if err := r.InitObject("items", data); err != nil {
		t.Fatal(err)
	}
	// Read element 3's key through the cache.
	g := make([]byte, 8)
	if err := r.Access(clk, "items", 3, fld(0, 8), g, false, AccessOpts{}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g, data[3*64:3*64+8]) {
		t.Fatal("cached read disagrees with initialized data")
	}
	// Dirty write, then flush, then dump.
	w := []byte{9, 9, 9, 9, 9, 9, 9, 9}
	_ = r.Access(clk, "items", 3, fld(0, 8), w, true, AccessOpts{})
	if err := r.FlushAll(clk); err != nil {
		t.Fatal(err)
	}
	dump, err := r.DumpObject("items")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dump[3*64:3*64+8], w) {
		t.Fatal("dirty write lost after flush")
	}
}

func TestHitCheaperThanMiss(t *testing.T) {
	r, clk := mkRuntime(t, nil)
	buf := make([]byte, 8)
	_ = r.Access(clk, "items", 0, fld(0, 8), buf, false, AccessOpts{})
	missCost := clk.Now().Sub(0)
	before := clk.Now()
	_ = r.Access(clk, "items", 0, fld(0, 8), buf, false, AccessOpts{})
	hitCost := clk.Now().Sub(before)
	if hitCost*20 > missCost {
		t.Fatalf("hit %v not far below miss %v", hitCost, missCost)
	}
}

func TestNativeAccessCheaperThanDeref(t *testing.T) {
	r, clk := mkRuntime(t, nil)
	buf := make([]byte, 8)
	_ = r.Access(clk, "items", 0, fld(0, 8), buf, false, AccessOpts{})

	before := clk.Now()
	_ = r.Access(clk, "items", 0, fld(0, 8), buf, false, AccessOpts{})
	deref := clk.Now().Sub(before)

	before = clk.Now()
	_ = r.Access(clk, "items", 0, fld(0, 8), buf, false, AccessOpts{Native: true})
	native := clk.Now().Sub(before)

	if native >= deref {
		t.Fatalf("native %v not cheaper than deref %v", native, deref)
	}
}

func TestNativeFallbackOnAbsentLine(t *testing.T) {
	r, clk := mkRuntime(t, nil)
	// Native access to a line that was never fetched must still return
	// correct data (fallback to the slow path).
	data := make([]byte, 64*128)
	data[7*64] = 0x5a
	_ = r.InitObject("items", data)
	g := make([]byte, 8)
	if err := r.Access(clk, "items", 7, fld(0, 8), g, false, AccessOpts{Native: true}); err != nil {
		t.Fatal(err)
	}
	if g[0] != 0x5a {
		t.Fatal("native fallback returned wrong data")
	}
}

func TestPrefetchOverlapsLatency(t *testing.T) {
	r, clk := mkRuntime(t, nil)
	buf := make([]byte, 8)

	// Cold miss cost.
	_ = r.Access(clk, "items", 0, fld(0, 8), buf, false, AccessOpts{})
	start := clk.Now()
	_ = r.Access(clk, "items", 20, fld(0, 8), buf, false, AccessOpts{})
	missCost := clk.Now().Sub(start)

	// Prefetch far ahead, burn equivalent compute time, then access.
	_ = r.Prefetch(clk, "items", 40, fld(0, 8))
	clk.Advance(missCost * 2) // plenty of compute to hide the fetch
	start = clk.Now()
	_ = r.Access(clk, "items", 40, fld(0, 8), buf, false, AccessOpts{})
	prefetched := clk.Now().Sub(start)

	if prefetched*5 > missCost {
		t.Fatalf("prefetched access %v not far below demand miss %v", prefetched, missCost)
	}
}

func TestPrefetchPastEndIsNoop(t *testing.T) {
	r, clk := mkRuntime(t, nil)
	if err := r.Prefetch(clk, "items", 10_000, fld(0, 8)); err != nil {
		t.Fatal(err)
	}
}

func TestPrefetchBatchFetchesAll(t *testing.T) {
	r, clk := mkRuntime(t, nil)
	data := make([]byte, 64*128)
	for i := range data {
		data[i] = byte(i % 251)
	}
	_ = r.InitObject("items", data)
	entries := []BatchEntry{
		{Obj: "items", Elem: 0, Field: fld(0, 8)},
		{Obj: "items", Elem: 10, Field: fld(0, 8)},
		{Obj: "items", Elem: 20, Field: fld(0, 8)},
	}
	if err := r.PrefetchBatch(clk, entries); err != nil {
		t.Fatal(err)
	}
	r.Fence(clk)
	for _, e := range entries {
		g := make([]byte, 8)
		before := r.SectionStats(0).Misses
		if err := r.Access(clk, e.Obj, e.Elem, e.Field, g, false, AccessOpts{}); err != nil {
			t.Fatal(err)
		}
		if r.SectionStats(0).Misses != before {
			t.Fatalf("element %d missed after batch prefetch", e.Elem)
		}
		if !bytes.Equal(g, data[e.Elem*64:e.Elem*64+8]) {
			t.Fatalf("element %d: wrong data after batch prefetch", e.Elem)
		}
	}
}

func TestEvictHintFlushesDirty(t *testing.T) {
	r, clk := mkRuntime(t, nil)
	w := []byte{0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff, 0x11, 0x22}
	_ = r.Access(clk, "items", 9, fld(0, 8), w, true, AccessOpts{})
	if err := r.EvictHint(clk, "items", 9); err != nil {
		t.Fatal(err)
	}
	r.Fence(clk)
	// Far memory must already hold the data without any further flush.
	dump, err := r.DumpObject("items")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dump[9*64:9*64+8], w) {
		t.Fatal("eviction hint did not flush dirty line")
	}
}

func TestNoFetchStoreSkipsNetworkRead(t *testing.T) {
	r, clk := mkRuntime(t, nil)
	node := r.Pool().FarNode(0)
	readBefore, _, _ := node.Stats()
	// Write a whole 128B line (elements 0 and 1) with NoFetch.
	w := make([]byte, 64)
	for i := range w {
		w[i] = 0x3c
	}
	_ = r.Access(clk, "items", 0, fld(0, 64), w, true, AccessOpts{NoFetch: true})
	_ = r.Access(clk, "items", 1, fld(0, 64), w, true, AccessOpts{NoFetch: true})
	readAfter, _, _ := node.Stats()
	if readAfter != readBefore {
		t.Fatalf("NoFetch store still read %d bytes from far memory", readAfter-readBefore)
	}
	if err := r.FlushAll(clk); err != nil {
		t.Fatal(err)
	}
	dump, _ := r.DumpObject("items")
	if !bytes.Equal(dump[:64], w) || !bytes.Equal(dump[64:128], w) {
		t.Fatal("NoFetch store lost data")
	}
}

func TestSelectiveTransmissionMovesFewerBytes(t *testing.T) {
	mk := func(selective bool) int64 {
		cfgFn := func(c *Config) {
			c.Sections[0].Cache.LineBytes = 256
			if selective {
				c.Sections[0].TwoSided = true
				c.Sections[0].SelectiveFields = []string{"key", "val"}
			}
		}
		r, clk := mkRuntime(t, cfgFn)
		buf := make([]byte, 8)
		for e := int64(0); e < 64; e++ {
			_ = r.Access(clk, "items", e, fld(0, 8), buf, false, AccessOpts{})
			_ = r.Access(clk, "items", e, fld(8, 8), buf, false, AccessOpts{})
		}
		return r.BytesMoved()
	}
	full := mk(false)
	sel := mk(true)
	if sel*2 > full {
		t.Fatalf("selective transmission moved %d bytes, full lines %d — expected far less", sel, full)
	}
}

func TestSelectiveTransmissionCorrectRoundtrip(t *testing.T) {
	r, clk := mkRuntime(t, func(c *Config) {
		c.Sections[0].TwoSided = true
		c.Sections[0].SelectiveFields = []string{"key", "val"}
	})
	data := make([]byte, 64*128)
	for i := range data {
		data[i] = byte(i * 13)
	}
	_ = r.InitObject("items", data)
	// Read keys, overwrite vals, flush, verify both selective fields and
	// untouched pad bytes.
	for e := int64(0); e < 32; e++ {
		g := make([]byte, 8)
		if err := r.Access(clk, "items", e, fld(0, 8), g, false, AccessOpts{}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g, data[e*64:e*64+8]) {
			t.Fatalf("element %d key mismatch", e)
		}
		w := []byte{byte(e), 0, 0, 0, 0, 0, 0, 1}
		if err := r.Access(clk, "items", e, fld(8, 8), w, true, AccessOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.FlushAll(clk); err != nil {
		t.Fatal(err)
	}
	dump, _ := r.DumpObject("items")
	for e := int64(0); e < 32; e++ {
		if !bytes.Equal(dump[e*64+8:e*64+16], []byte{byte(e), 0, 0, 0, 0, 0, 0, 1}) {
			t.Fatalf("element %d val not written back", e)
		}
		if !bytes.Equal(dump[e*64+16:e*64+64], data[e*64+16:e*64+64]) {
			t.Fatalf("element %d pad corrupted by selective writeback", e)
		}
	}
}

func TestBulkRoundtrip(t *testing.T) {
	r, clk := mkRuntime(t, func(c *Config) {
		c.Placements["vec"] = Placement{Kind: PlaceSection, Section: 0}
	})
	w := make([]byte, 512*8)
	for i := range w {
		w[i] = byte(i * 31)
	}
	if err := r.BulkWrite(clk, "vec", 0, w); err != nil {
		t.Fatal(err)
	}
	g := make([]byte, 512*8)
	if err := r.BulkRead(clk, "vec", 0, g); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g, w) {
		t.Fatal("bulk roundtrip mismatch")
	}
}

func TestBulkUnalignedBoundary(t *testing.T) {
	r, clk := mkRuntime(t, func(c *Config) {
		c.Placements["vec"] = Placement{Kind: PlaceSection, Section: 0}
	})
	init := make([]byte, 512*8)
	for i := range init {
		init[i] = 0x11
	}
	_ = r.InitObject("vec", init)
	// Write 3 elements starting at element 5: partially covers lines.
	w := []byte{1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3}
	if err := r.BulkWrite(clk, "vec", 5, w); err != nil {
		t.Fatal(err)
	}
	if err := r.FlushAll(clk); err != nil {
		t.Fatal(err)
	}
	dump, _ := r.DumpObject("vec")
	if !bytes.Equal(dump[5*8:8*8], w) {
		t.Fatal("bulk write lost")
	}
	if dump[4*8] != 0x11 || dump[8*8] != 0x11 {
		t.Fatal("bulk write corrupted neighbours")
	}
}

func TestBulkLargerThanSection(t *testing.T) {
	// vec (4 KB) through a 1 KB section: pass-1 fetches evict each
	// other; pass 2 must still produce correct data.
	r, clk := mkRuntime(t, func(c *Config) {
		c.Sections[0].Cache.SizeBytes = 1 << 10
		c.Placements["vec"] = Placement{Kind: PlaceSection, Section: 0}
	})
	w := make([]byte, 512*8)
	for i := range w {
		w[i] = byte(i % 256)
	}
	_ = r.InitObject("vec", w)
	g := make([]byte, 512*8)
	if err := r.BulkRead(clk, "vec", 0, g); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g, w) {
		t.Fatal("bulk read through small section mismatched")
	}
}

func TestFlushObjectOnlyTouchesTarget(t *testing.T) {
	r, clk := mkRuntime(t, nil)
	buf := make([]byte, 8)
	_ = r.Access(clk, "items", 0, fld(0, 8), buf, false, AccessOpts{})
	missesBefore := r.SectionStats(0).Misses
	if err := r.FlushObject(clk, "items"); err != nil {
		t.Fatal(err)
	}
	_ = r.Access(clk, "items", 0, fld(0, 8), buf, false, AccessOpts{})
	if r.SectionStats(0).Misses != missesBefore+1 {
		t.Fatal("line survived FlushObject")
	}
}

func TestMetadataAccounting(t *testing.T) {
	r, _ := mkRuntime(t, nil)
	md := r.MetadataBytes()
	if md <= 0 {
		t.Fatal("no metadata accounted")
	}
	// 16KB/128B = 128 lines x 24B (set-assoc) + 16 pages x 16B.
	want := int64(128*24 + 16*16)
	if md != want {
		t.Fatalf("MetadataBytes = %d, want %d", md, want)
	}
}

func TestPtrEncoding(t *testing.T) {
	r, _ := mkRuntime(t, nil)
	p, err := r.Ptr("items", 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.Section() != 1 {
		t.Fatalf("section = %d, want 1", p.Section())
	}
	q, err := r.Ptr("vec", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !q.IsLocal() {
		t.Fatal("swap-placed object pointer should use the local/section-0 convention")
	}
}

func TestBindRejectsLocalOverBudget(t *testing.T) {
	b := ir.NewBuilder("big")
	o := b.IntArray("huge", 1<<20) // 8 MB local
	o.Local = true
	b.Func("main")
	p := b.MustProgram()
	node := farmem.NewNode(farmem.NodeConfig{Capacity: 1 << 26, CPUSlowdown: 1})
	r, err := New(Config{LocalBudget: 1 << 20, SwapPool: 4096}, node)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Bind(p); err == nil {
		t.Fatal("local object exceeding budget accepted")
	}
}

func TestProfilingChargesProbes(t *testing.T) {
	run := func(profiling bool) sim.Duration {
		r, clk := mkRuntime(t, func(c *Config) { c.Profiling = profiling })
		buf := make([]byte, 8)
		for e := int64(0); e < 64; e++ {
			_ = r.Access(clk, "items", e, fld(0, 8), buf, false, AccessOpts{})
		}
		return clk.Now().Sub(0)
	}
	off := run(false)
	on := run(true)
	if on <= off {
		t.Fatal("profiling charged nothing")
	}
	overhead := float64(on-off) / float64(off)
	if overhead > 0.05 {
		t.Fatalf("profiling overhead %.2f%% above the paper's ~1%% ballpark", overhead*100)
	}
}
