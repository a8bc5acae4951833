package rt

import (
	"testing"

	"mira/internal/cache"
	"mira/internal/farmem"
	"mira/internal/ir"
	"mira/internal/sim"
)

// A batched prefetch turns its swap-placed entries into one page advisory,
// in hybrid mode or not, and charges the issuing clock the posting cost of
// the pages it puts on the wire — distinct, in range, neither resident nor
// in flight — as its line chain pays for the lines it claims. A batch with
// nothing to fetch costs nothing.
func TestBatchedPageAdvisoryCharge(t *testing.T) {
	for _, hybrid := range []bool{false, true} {
		b := ir.NewBuilder("advise")
		b.FloatArray("pages", 8*512)
		b.FloatArray("lines", 1024)
		b.Func("main")
		cfg := Config{
			LocalBudget: 1 << 20,
			SwapPool:    16 * 4096,
			Hybrid:      hybrid,
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
			t.Errorf("hybrid %v: batch charged %v, want %v (3 pages and 1 line)", hybrid, got, want)
		}
		if got := r.SwapStats().Prefetches - issued; got != 3 {
			t.Errorf("hybrid %v: %d pages prefetched, want 3", hybrid, got)
		}
		before = clk.Now()
		if err := r.PrefetchBatch(clk, entries); err != nil {
			t.Fatal(err)
		}
		if got := clk.Now().Sub(before); got != 0 {
			t.Errorf("hybrid %v: a batch of resident and in-flight pieces charged %v", hybrid, got)
		}
	}
}
