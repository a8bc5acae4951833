package rt

import (
	"bytes"
	"testing"

	"mira/internal/cache"
)

// Shrinking must flush dirty lines first and regrowing must refetch them:
// no data loss across a full lend/reclaim cycle, only a cold cache.
func TestElasticShrinkRegrowPreservesData(t *testing.T) {
	r, clk := mkRuntime(t, func(c *Config) {
		c.WritebackQueueLines = 16
	})
	base := r.SectionLiveBytes()
	if base != 16<<10 {
		t.Fatalf("live bytes = %d, want %d", base, 16<<10)
	}

	// Dirty a few elements, leave them resident (no flush).
	writes := map[int64][]byte{
		0: {1, 2, 3, 4, 5, 6, 7, 8},
		7: {9, 9, 9, 9, 8, 8, 8, 8},
	}
	for e, w := range writes {
		if err := r.Access(clk, "items", e, fld(0, 8), w, true, AccessOpts{}); err != nil {
			t.Fatal(err)
		}
	}

	if err := r.SetSectionScale(clk, 0.25); err != nil {
		t.Fatal(err)
	}
	if got := r.SectionLiveBytes(); got != base/4 {
		t.Fatalf("shrunk live bytes = %d, want %d", got, base/4)
	}
	if r.SectionScale() != 0.25 {
		t.Fatalf("scale = %g", r.SectionScale())
	}
	// The dirty lines must already sit in far memory: DumpObject bypasses
	// the cache entirely.
	dump, err := r.DumpObject("items")
	if err != nil {
		t.Fatal(err)
	}
	for e, w := range writes {
		if !bytes.Equal(dump[e*64:e*64+8], w) {
			t.Fatalf("elem %d lost on shrink: %x", e, dump[e*64:e*64+8])
		}
	}

	// Regrow: the cache is cold, so the next access misses and refetches.
	if err := r.SetSectionScale(clk, 1); err != nil {
		t.Fatal(err)
	}
	if got := r.SectionLiveBytes(); got != base {
		t.Fatalf("regrown live bytes = %d, want %d", got, base)
	}
	missesBefore := r.SectionStats(0).Misses
	g := make([]byte, 8)
	if err := r.Access(clk, "items", 0, fld(0, 8), g, false, AccessOpts{}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g, writes[0]) {
		t.Fatalf("post-regrow read %x, want %x", g, writes[0])
	}
	if r.SectionStats(0).Misses != missesBefore+1 {
		t.Fatal("regrown cache was not cold")
	}
}

// A shrunken section must keep working (capacity pressure, not failure),
// and re-scaling to the current value must be a no-op.
func TestElasticShrunkSectionStillServes(t *testing.T) {
	r, clk := mkRuntime(t, func(c *Config) {
		c.Sections[0].Cache = cache.Config{Name: "items", Structure: cache.Direct, LineBytes: 128, SizeBytes: 1 << 10}
		c.WritebackQueueLines = 16
	})
	if err := r.SetSectionScale(clk, 0.25); err != nil {
		t.Fatal(err)
	}
	for e := int64(0); e < 32; e++ {
		w := []byte{byte(e), 0xaa}
		if err := r.Access(clk, "items", e, fld(0, 2), w, true, AccessOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.FlushAll(clk); err != nil {
		t.Fatal(err)
	}
	dump, err := r.DumpObject("items")
	if err != nil {
		t.Fatal(err)
	}
	for e := int64(0); e < 32; e++ {
		if dump[e*64] != byte(e) || dump[e*64+1] != 0xaa {
			t.Fatalf("elem %d wrong after shrunken-section run: %x", e, dump[e*64:e*64+2])
		}
	}
	now := clk.Now()
	if err := r.SetSectionScale(clk, 0.25); err != nil {
		t.Fatal(err)
	}
	if clk.Now() != now {
		t.Fatal("re-scaling to the current scale charged time")
	}
	if err := r.SetSectionScale(clk, 0); err == nil {
		t.Fatal("scale 0 accepted")
	}
}

// A resize drops every line, so it must retire them like any eviction: a
// compressed section's delta snapshots die with their lines (a leaked one
// would be the diff base of a later no-fetch write-allocate of the tag), and
// prefetched lines that were never touched count useless.
func TestElasticResizeRetiresSnapshotsAndPrefetches(t *testing.T) {
	r, clk := mkRuntime(t, func(c *Config) {
		c.Sections[0].Compress = true
		c.WritebackQueueLines = 16
	})
	data := make([]byte, 128*64)
	for i := range data {
		data[i] = byte(i%251) + 1
	}
	if err := r.InitObject("items", data); err != nil {
		t.Fatal(err)
	}
	g := make([]byte, 8)
	for _, e := range []int64{0, 2, 4} { // clean lines, one snapshot each
		if err := r.Access(clk, "items", e, fld(0, 8), g, false, AccessOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Access(clk, "items", 6, fld(0, 8), []byte{1, 2, 3, 4, 5, 6, 7, 8}, true, AccessOpts{}); err != nil {
		t.Fatal(err)
	}
	for _, e := range []int64{8, 10, 12} { // three prefetched lines, one of them used
		if err := r.Prefetch(clk, "items", e, fld(0, 8)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Access(clk, "items", 8, fld(0, 8), g, false, AccessOpts{}); err != nil {
		t.Fatal(err)
	}
	s := r.secs[0]
	if len(s.snaps) != 7 {
		t.Fatalf("%d snapshots before the resize, want one per fetched line (7)", len(s.snaps))
	}

	if err := r.SetSectionScale(clk, 0.25); err != nil {
		t.Fatal(err)
	}
	if len(s.snaps) != 0 {
		t.Fatalf("resize leaked %d delta snapshots of lines it dropped", len(s.snaps))
	}
	resident := speculative(s)
	if pf := s.pf; pf.Issued != pf.Useful+pf.Useless+resident || pf.Issued != 3 || pf.Useful != 1 {
		t.Fatalf("prefetch accounting after the resize: %+v with %d still speculative; want issued 3 = useful 1 + useless 2", pf, resident)
	}
	dump, err := r.DumpObject("items")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dump[6*64:6*64+8], []byte{1, 2, 3, 4, 5, 6, 7, 8}) {
		t.Fatalf("dirty line lost on resize: %x", dump[6*64:6*64+8])
	}
}
