package rt

import (
	"bytes"
	"strings"
	"testing"

	"mira/internal/cache"
)

func TestAccessorsAndStats(t *testing.T) {
	r, clk := mkRuntime(t, nil)
	if p := r.Pool(); p == nil || p.NodeCount() != 1 {
		t.Fatal("a runtime without a cluster does not run on a one-node pool")
	}
	if r.Transport() != nil {
		t.Fatal("Transport is not nil: the pool is the one data path")
	}
	if got := r.Config().SwapPool; got != 64<<10 {
		t.Fatalf("config swap pool %d", got)
	}
	if r.NumSections() != 1 {
		t.Fatal("section count")
	}
	if got := r.SectionConfig(0); got.Name != "items" || got.Structure != cache.SetAssoc {
		t.Fatalf("section config %+v", got)
	}
	if !r.HasSwap() {
		t.Fatal("swap missing")
	}

	// Drive one miss through the section and one through swap, then check
	// the counters and reset.
	buf := make([]byte, 8)
	if err := r.Access(clk, "items", 3, fld(0, 8), buf, false, AccessOpts{}); err != nil {
		t.Fatal(err)
	}
	if err := r.Access(clk, "vec", 5, fld(0, 8), buf, false, AccessOpts{}); err != nil {
		t.Fatal(err)
	}
	if r.MissCount() == 0 {
		t.Fatal("no misses counted")
	}
	if r.SwapStats().MajorFaults == 0 {
		t.Fatal("no swap fault counted")
	}
	r.ResetStats()
	if r.MissCount() != 0 {
		t.Fatalf("miss count %d after reset", r.MissCount())
	}
	if r.SwapStats().MajorFaults != 0 {
		t.Fatal("swap stats survived reset")
	}
}

func TestFarAddr(t *testing.T) {
	r, _ := mkRuntime(t, nil)
	a0, err := r.FarAddr("items", 0)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := r.FarAddr("items", 2)
	if err != nil {
		t.Fatal(err)
	}
	if a2 != a0+2*64 {
		t.Fatalf("element stride wrong: %d vs %d", a0, a2)
	}
	if _, err := r.FarAddr("nosuch", 0); err == nil {
		t.Fatal("unknown object accepted")
	}
}

func TestConfigAndPtrStrings(t *testing.T) {
	for k, want := range map[PlaceKind]string{PlaceSwap: "swap", PlaceSection: "section", PlaceLocal: "local"} {
		if k.String() != want {
			t.Fatalf("PlaceKind %d renders %q", int(k), k.String())
		}
	}
	if got := PlaceKind(99).String(); !strings.Contains(got, "99") {
		t.Fatalf("unknown kind renders %q", got)
	}
	p := MakePtr(2, 0x40)
	if ps := p.String(); !strings.Contains(ps, "2") {
		t.Fatalf("ptr render %q", ps)
	}
	if lp := MakePtr(LocalSection, 0x40).String(); !strings.Contains(lp, "local") {
		t.Fatalf("local ptr render %q", lp)
	}
}

// TestMissCountIsTheSectionsAndSwapSum: MissCount is a field read kept in
// step with what it used to add up on every call — every section's Misses
// plus the swap pool's major faults — through misses on both planes, a
// stats reset and a section rebuild.
func TestMissCountIsTheSectionsAndSwapSum(t *testing.T) {
	r, clk := mkRuntime(t, nil)
	sum := func() int64 {
		total := r.SwapStats().MajorFaults
		for i := 0; i < r.NumSections(); i++ {
			total += r.SectionStats(i).Misses
		}
		return total
	}
	check := func(when string) {
		t.Helper()
		if got, want := r.MissCount(), sum(); got != want {
			t.Fatalf("%s: MissCount %d, sections + swap say %d", when, got, want)
		}
	}
	buf := make([]byte, 8)
	touch := func(stride int64) {
		for elem := int64(0); elem < 512; elem += stride {
			if err := r.Access(clk, "items", elem%128, fld(0, 8), buf, false, AccessOpts{}); err != nil {
				t.Fatal(err)
			}
			if err := r.Access(clk, "vec", elem, fld(0, 8), buf, true, AccessOpts{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	touch(3)
	check("after misses on both planes")
	if r.MissCount() == 0 {
		t.Fatal("the accesses missed nothing")
	}
	if err := r.SetSectionScale(clk, 0.5); err != nil {
		t.Fatal(err)
	}
	check("after a section rebuild")
	touch(5)
	check("after misses on the rebuilt section")
	r.ResetStats()
	check("after ResetStats")
	touch(7)
	check("after misses past the reset")
}

// TestHandleEntryPointsMatchByName: each by-name entry point is a lookup in
// front of its handle twin, so two runtimes driven through the same operations
// — one by name, one by handle — end on the same clock with the same counters
// and the same far memory.
func TestHandleEntryPointsMatchByName(t *testing.T) {
	byName, nclk := mkRuntime(t, nil)
	byHandle, hclk := mkRuntime(t, nil)
	items, ok := byHandle.Handle("items")
	if !ok {
		t.Fatal("no handle for items")
	}
	if _, ok := byHandle.Handle("ghost"); ok {
		t.Fatal("handle for an unbound object")
	}
	f := fld(0, 8)
	for i := int64(0); i < 600; i++ {
		elem := (i * 37) % 128
		nbuf, hbuf := []byte{byte(i), 1, 2, 3, 4, 5, 6, 7}, []byte{byte(i), 1, 2, 3, 4, 5, 6, 7}
		var nerr, herr error
		switch i % 6 {
		case 0:
			nerr = byName.Prefetch(nclk, "items", elem, f)
			herr = byHandle.PrefetchH(hclk, items, elem, f)
		case 1:
			nerr = byName.PrefetchBatch(nclk, []BatchEntry{{Obj: "items", Elem: elem, Field: f}, {Obj: "vec", Elem: elem, Field: f}})
			herr = byHandle.PrefetchBatch(hclk, []BatchEntry{{Obj: "items", Elem: elem, Field: f, H: items}, {Obj: "vec", Elem: elem, Field: f}})
		case 2:
			nerr = byName.EvictHint(nclk, "items", elem)
			herr = byHandle.EvictHintH(hclk, items, elem)
		case 3:
			nerr = byName.BulkWrite(nclk, "items", elem/2, nbuf)
			herr = byHandle.BulkWriteH(hclk, items, elem/2, hbuf)
			if nerr == nil {
				nerr = byName.BulkRead(nclk, "items", elem/3, nbuf)
				herr = byHandle.BulkReadH(hclk, items, elem/3, hbuf)
			}
		case 4:
			if i%30 == 4 {
				nerr = byName.Release(nclk, "items")
				herr = byHandle.ReleaseH(hclk, items)
			}
		default:
			nerr = byName.Access(nclk, "items", elem, f, nbuf, i%4 == 1, AccessOpts{})
			herr = byHandle.AccessH(hclk, items, elem, f, hbuf, i%4 == 1, AccessOpts{})
		}
		if nerr != nil || herr != nil {
			t.Fatalf("op %d: by name %v, by handle %v", i, nerr, herr)
		}
		if !bytes.Equal(nbuf, hbuf) || nclk.Now() != hclk.Now() {
			t.Fatalf("op %d: by name read %x at %v, by handle %x at %v", i, nbuf, nclk.Now(), hbuf, hclk.Now())
		}
	}
	// Out of range is the same error either way.
	nerr := byName.Access(nclk, "items", 1<<20, f, make([]byte, 8), false, AccessOpts{})
	herr := byHandle.AccessH(hclk, items, 1<<20, f, make([]byte, 8), false, AccessOpts{})
	if nerr == nil || herr == nil || nerr.Error() != herr.Error() {
		t.Fatalf("out of range: by name %v, by handle %v", nerr, herr)
	}
	for _, r := range []*Runtime{byName, byHandle} {
		clk := nclk
		if r == byHandle {
			clk = hclk
		}
		if err := r.FlushAll(clk); err != nil {
			t.Fatal(err)
		}
	}
	if nclk.Now() != hclk.Now() || byName.SectionStats(0) != byHandle.SectionStats(0) || byName.NetStats() != byHandle.NetStats() {
		t.Fatalf("by name ends at %v with %+v, by handle at %v with %+v",
			nclk.Now(), byName.SectionStats(0), hclk.Now(), byHandle.SectionStats(0))
	}
	nd, _ := byName.DumpObject("items")
	hd, _ := byHandle.DumpObject("items")
	if !bytes.Equal(nd, hd) {
		t.Fatal("far memory differs")
	}
}
