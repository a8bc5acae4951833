package rt

import (
	"testing"

	"mira/internal/cache"
	"mira/internal/farmem"
	"mira/internal/ir"
	"mira/internal/sim"
)

// A batched prefetch turns its swap-placed entries into one page advisory
// and charges the issuing clock the posting cost of the pages it puts on the
// wire — distinct, in range, neither resident nor in flight — as its line
// chain pays for the lines it claims. A batch with nothing to fetch costs
// nothing.
func TestBatchedPageAdvisoryCharge(t *testing.T) {
	b := ir.NewBuilder("advise")
	b.FloatArray("pages", 8*512)
	b.FloatArray("lines", 1024)
	b.Func("main")
	cfg := Config{
		LocalBudget: 1 << 20,
		SwapPool:    16 * 4096,
		Sections: []SectionSpec{{
			Cache: cache.Config{Name: "lines", Structure: cache.Direct, LineBytes: 2048, SizeBytes: 16 << 10},
		}},
		Placements: map[string]Placement{
			"pages": {Kind: PlaceSwap},
			"lines": {Kind: PlaceSection, Section: 0},
		},
	}
	r, err := New(cfg, farmem.NewNode(farmem.NodeConfig{Capacity: 1 << 26, CPUSlowdown: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Bind(b.MustProgram()); err != nil {
		t.Fatal(err)
	}
	clk := sim.NewClock(0)
	if err := r.BulkRead(clk, "pages", 2*512, make([]byte, 8)); err != nil { // page 2 resident
		t.Fatal(err)
	}
	entries := []BatchEntry{
		{Obj: "pages", Elem: 0}, {Obj: "pages", Elem: 7}, // page 0 twice
		{Obj: "pages", Elem: 512},     // page 1
		{Obj: "pages", Elem: 2 * 512}, // page 2, resident
		{Obj: "pages", Elem: 3 * 512}, // page 3
		{Obj: "pages", Elem: 8 * 512}, // past the end
		{Obj: "lines", Elem: 0},       // one line
	}
	before, issued := clk.Now(), r.SwapStats().Prefetches
	if err := r.PrefetchBatch(clk, entries); err != nil {
		t.Fatal(err)
	}
	net := r.Config().Net
	want := net.VectoredPostCost(3) + net.VectoredPostCost(1)
	if got := clk.Now().Sub(before); got != want {
		t.Errorf("batch charged %v, want %v (3 pages and 1 line)", got, want)
	}
	if got := r.SwapStats().Prefetches - issued; got != 3 {
		t.Errorf("%d pages prefetched, want 3", got)
	}
	before = clk.Now()
	if err := r.PrefetchBatch(clk, entries); err != nil {
		t.Fatal(err)
	}
	if got := clk.Now().Sub(before); got != 0 {
		t.Errorf("a batch of resident and in-flight pieces charged %v", got)
	}
}

// A compiled prefetch of a swap-placed object is a one-page advisory: the
// page goes on the wire once, and a prefetch of a page already in flight,
// or past the object's end, issues nothing.
func TestSwapPrefetchIsPageAdvisory(t *testing.T) {
	b := ir.NewBuilder("advise")
	b.FloatArray("pages", 8*512)
	b.Func("main")
	cfg := Config{
		LocalBudget: 1 << 20,
		SwapPool:    16 * 4096,
		Placements:  map[string]Placement{"pages": {Kind: PlaceSwap}},
	}
	r, err := New(cfg, farmem.NewNode(farmem.NodeConfig{Capacity: 1 << 26, CPUSlowdown: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Bind(b.MustProgram()); err != nil {
		t.Fatal(err)
	}
	clk := sim.NewClock(0)
	f := ir.Field{Bytes: 8}
	for i, elem := range []int64{3 * 512, 3*512 + 1, 8 * 512} {
		if err := r.Prefetch(clk, "pages", elem, f); err != nil {
			t.Fatalf("prefetch %d: %v", i, err)
		}
		if got := r.SwapStats().Prefetches; got != 1 {
			t.Fatalf("after prefetch %d (elem %d): %d pages prefetched, want 1", i, elem, got)
		}
	}
}
