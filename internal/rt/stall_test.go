package rt

import (
	"testing"

	"mira/internal/cache"
	"mira/internal/sim"
)

// SectionStall charges each section the sim time its program spends on it:
// a batch's posting cost goes to the section of the line that opened the
// chain — a gather of one section's lines to that section alone, a mixed
// batch's to its first line's section — and a demand access to a prefetched
// line still in flight adds the whole wait. With nothing else on the clock,
// the stalls sum to the elapsed time.
func TestSectionStall(t *testing.T) {
	r, clk := mkRuntime(t, func(c *Config) {
		c.Sections = append(c.Sections, SectionSpec{
			Cache: cache.Config{Name: "vec", Structure: cache.Direct, LineBytes: 128, SizeBytes: 8 << 10},
		})
		c.Placements["vec"] = Placement{Kind: PlaceSection, Section: 1}
	})
	net := r.Config().Net
	stalls := func() (sim.Duration, sim.Duration) { return r.SectionStall(0), r.SectionStall(1) }
	charged := func(what string, items, vec sim.Duration, op func() error) {
		t.Helper()
		i0, v0 := stalls()
		if err := op(); err != nil {
			t.Fatal(err)
		}
		i1, v1 := stalls()
		if i1-i0 != items || v1-v0 != vec {
			t.Errorf("%s: items stalled %v more, vec %v; want %v and %v", what, i1-i0, v1-v0, items, vec)
		}
	}

	// A gather of vec's lines: its posting cost is vec's.
	gather := []BatchEntry{{Obj: "vec", Elem: 0, Field: fld(0, 8)}, {Obj: "vec", Elem: 64, Field: fld(0, 8)}}
	charged("gather of vec", 0, net.VectoredPostCost(2), func() error { return r.PrefetchBatch(clk, gather) })

	// A mixed batch opened by an items line.
	mixed := []BatchEntry{{Obj: "items", Elem: 0, Field: fld(0, 8)}, {Obj: "vec", Elem: 128, Field: fld(0, 8)}, {Obj: "vec", Elem: 192, Field: fld(0, 8)}}
	charged("mixed batch", net.VectoredPostCost(3), 0, func() error { return r.PrefetchBatch(clk, mixed) })

	// items[0] is still in flight: reading it now waits for it to land, and
	// the wait is the items section's.
	start := clk.Now()
	i0, _ := stalls()
	buf := make([]byte, 8)
	if err := r.Access(clk, "items", 0, fld(0, 8), buf, false, AccessOpts{}); err != nil {
		t.Fatal(err)
	}
	waited := clk.Now().Sub(start)
	if waited <= r.Config().Cost.Lookup(cache.SetAssoc) {
		t.Fatalf("reading a line in flight took %v, no more than a lookup: the test read it after it landed", waited)
	}
	if i1, _ := stalls(); i1-i0 != waited {
		t.Errorf("items stalled %v for a %v read of a line in flight", i1-i0, waited)
	}

	// A demand miss on vec is vec's.
	start = clk.Now()
	_, v0 := stalls()
	if err := r.Access(clk, "vec", 300, fld(0, 8), buf, false, AccessOpts{}); err != nil {
		t.Fatal(err)
	}
	if _, v1 := stalls(); v1-v0 != clk.Now().Sub(start) {
		t.Errorf("vec stalled %v for a %v demand miss", v1-v0, clk.Now().Sub(start))
	}

	if i, v := stalls(); i+v != sim.Duration(clk.Now()) {
		t.Errorf("stalls sum to %v over %v of accesses and batches", i+v, sim.Duration(clk.Now()))
	}
	r.ResetStats()
	if i, v := stalls(); i != 0 || v != 0 {
		t.Errorf("stalls %v and %v after ResetStats", i, v)
	}
}
