//go:build !race

package rt

import (
	"bytes"
	"math/rand"
	"testing"

	"mira/internal/cache"
	"mira/internal/ir"
	"mira/internal/prefetch"
	"mira/internal/sim"
	"mira/internal/transport/transporttest"
)

// The line plane's miss path on a warm section: a dirty miss evicts a dirty
// line, whose buffer moves into the write-back queue as is; every
// wbqLimit-th miss drains the queue, which hands the buffers back. Nothing is
// allocated between two drains, and nothing across a drain either.
func TestDirtyMissOnWarmSectionAllocatesNothing(t *testing.T) {
	const wbqLimit = 8
	r, clk := wbqRuntime(t, wbqLimit)
	r.tr = &transporttest.QuietLink{} // allocates nothing itself: what is counted is the runtime's own
	elem := int64(0)
	dirtyMiss := func() {
		// 8 lines of 128 B over 64 lines of items: every access misses.
		elem = (elem + 2) % 128
		if err := r.Access(clk, "items", elem, fld(0, 8), []byte{1, 2, 3, 4, 5, 6, 7, 8}, true, AccessOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4*64; i++ {
		dirtyMiss()
	}
	for r.secs[0].wbq.len() != 0 {
		dirtyMiss()
	}
	st := r.WritebackQueueStats()
	// AllocsPerRun calls once more than it counts: wbqLimit-2 parkings in all.
	if got := testing.AllocsPerRun(wbqLimit-3, dirtyMiss); got != 0 {
		t.Errorf("%v allocs per dirty miss between two drains, want 0", got)
	}
	if now := r.WritebackQueueStats(); now.Drains != st.Drains {
		t.Fatalf("a drain ran inside the between-drains window (%d → %d)", st.Drains, now.Drains)
	}
	if got := testing.AllocsPerRun(50, func() {
		for i := 0; i < wbqLimit; i++ {
			dirtyMiss()
		}
	}); got != 0 {
		t.Errorf("%v allocs per %d dirty misses and the drain they cause, want 0", got, wbqLimit)
	}
	if now := r.WritebackQueueStats(); now.Drains-st.Drains < 50 || now.Enqueued-st.Enqueued < 50*wbqLimit {
		t.Fatalf("the loop did not park and drain: %+v → %+v", st, now)
	}
}

// A miss on a warm line-plane section under the History policy: the policy
// appends its proposals to the section's scratch, the filter collects the
// lines worth a fetch in another, and the speculative gather's vectors are
// the runtime's — so neither the miss nor the first touch of a line it
// prefetched allocates, with History's tables full and evicting.
func TestPolicyMissOnWarmSectionAllocatesNothing(t *testing.T) {
	r, clk := mkRuntime(t, func(c *Config) {
		c.Sections[0].Cache = cache.Config{Name: "items", Structure: cache.Direct, LineBytes: 128, SizeBytes: 1 << 10}
	})
	r.tr = &transporttest.QuietLink{Reply: make([]byte, 8*128)}
	if err := r.InstallSectionPolicy(0, prefetch.NewHistory(prefetch.HistoryConfig{MaxEntries: 64})); err != nil {
		t.Fatal(err)
	}
	// 8 lines of 128 B over 64 lines of items: a repeating irregular cycle of
	// lines History learns, one line in four drawn at random.
	rng := rand.New(rand.NewSource(1))
	cycle := make([]int64, 20)
	for i := range cycle {
		cycle[i] = rng.Int63n(64)
	}
	lines := make([]int64, 4096)
	for i := range lines {
		lines[i] = cycle[i%len(cycle)]
		if i%4 == 3 {
			lines[i] = rng.Int63n(64)
		}
	}
	buf := make([]byte, 8)
	next := 0
	run := func() {
		for range 256 {
			if err := r.Access(clk, "items", 2*lines[next], fld(0, 8), buf, false, AccessOpts{}); err != nil {
				t.Fatal(err)
			}
			next = (next + 1) % len(lines)
		}
	}
	for range 2 * len(lines) / 256 {
		run()
	}
	misses, pf := r.SectionStats(0).Misses, r.SectionPrefetchStats(0)
	if got := testing.AllocsPerRun(20, run); got != 0 {
		t.Errorf("%v allocs per 256 accesses under history, want 0", got)
	}
	if now := r.SectionPrefetchStats(0); r.SectionStats(0).Misses == misses || now.Issued == pf.Issued || now.Useful == pf.Useful {
		t.Fatalf("the measured runs missed %d times, prefetched %d lines and used %d: the test needs all three",
			r.SectionStats(0).Misses-misses, now.Issued-pf.Issued, now.Useful-pf.Useful)
	}
}

// quietPrefetcher is a warm direct-mapped section of 8 lines over a far side
// that allocates nothing, and prefetch, which issues a compiled prefetch of
// items[elem]'s line: 64 lines over 8 slots, so walking them claims a slot
// and evicts a clean line on every call.
func quietPrefetcher(t *testing.T) (r *Runtime, clk *sim.Clock, prefetch func(elem int64)) {
	r, clk = wbqRuntime(t, 8)
	r.tr = &transporttest.QuietLink{}
	return r, clk, func(elem int64) {
		if err := r.Prefetch(clk, "items", elem, fld(0, 8)); err != nil {
			t.Fatal(err)
		}
	}
}

// A prefetched line's first demand touch retires its speculative mark and
// waits for its bytes, on the line's own slot: nothing allocates.
func TestPrefetchedLineFirstTouchAllocatesNothing(t *testing.T) {
	r, clk, prefetch := quietPrefetcher(t)
	buf := make([]byte, 8)
	elem := int64(0)
	touch := func() {
		elem = (elem + 2) % 128
		prefetch(elem)
		if err := r.Access(clk, "items", elem, fld(0, 8), buf, false, AccessOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	touch()
	pf := r.SectionPrefetchStats(0)
	if got := testing.AllocsPerRun(100, touch); got != 0 {
		t.Errorf("%v allocs per prefetch and first touch, want 0", got)
	}
	if now := r.SectionPrefetchStats(0); now.Useful-pf.Useful != 101 || now.Late-pf.Late != 101 {
		t.Fatalf("the touches did not find their lines in flight: %+v → %+v", pf, now)
	}
}

// A BulkRead over prefetched lines still on the wire joins their wait and
// clears their marks: nothing allocates.
func TestBulkReadInFlightAllocatesNothing(t *testing.T) {
	r, clk, prefetch := quietPrefetcher(t)
	buf := make([]byte, 4*128)
	first := int64(0)
	bulk := func() {
		first = (first + 8) % 128
		for e := first; e < first+8; e += 2 {
			prefetch(e)
		}
		if err := r.BulkRead(clk, "items", first, buf); err != nil {
			t.Fatal(err)
		}
	}
	bulk()
	pf := r.SectionPrefetchStats(0)
	if got := testing.AllocsPerRun(100, bulk); got != 0 {
		t.Errorf("%v allocs per BulkRead over 4 lines in flight, want 0", got)
	}
	if now := r.SectionPrefetchStats(0); now.Late-pf.Late != 4*101 {
		t.Fatalf("the bulk reads did not find their lines in flight: %+v → %+v", pf, now)
	}
}

// A Fence folds every resident line's landing instant without allocating.
func TestFenceAllocatesNothing(t *testing.T) {
	r, clk, prefetch := quietPrefetcher(t)
	elem := int64(0)
	fence := func() {
		elem = (elem + 2) % 128
		prefetch(elem)
		ready := readyOf(r.secs[0], r.objs["items"].farBase+uint64(elem)*64)
		r.Fence(clk)
		if ready == 0 || clk.Now() != ready {
			t.Fatalf("fenced at %v, want the prefetch's landing at %v", clk.Now(), ready)
		}
	}
	fence()
	if got := testing.AllocsPerRun(100, fence); got != 0 {
		t.Errorf("%v allocs per prefetch and fence, want 0", got)
	}
}

// The hit path by handle: resolve the object once, then nothing between the
// caller and the section's Lookup allocates — on either plane, read or write,
// whichever section structure serves it.
func TestHandleAccessHitAllocatesNothing(t *testing.T) {
	for _, st := range []cache.Structure{cache.Direct, cache.SetAssoc, cache.FullAssoc} {
		r, clk := mkRuntime(t, func(c *Config) {
			c.Sections[0].Cache.Structure = st
		})
		for _, obj := range []string{"items", "vec"} {
			h, ok := r.Handle(obj)
			if !ok {
				t.Fatalf("no handle for %q", obj)
			}
			buf := make([]byte, 8)
			hit := func() {
				for elem := int64(0); elem < 8; elem++ {
					if err := r.AccessH(clk, h, elem, fld(0, 8), buf, elem&1 == 0, AccessOpts{Native: elem&2 == 0}); err != nil {
						t.Fatal(err)
					}
				}
			}
			hit() // the misses that warm the lines
			if got := testing.AllocsPerRun(100, hit); got != 0 {
				t.Errorf("%v on %s: %v allocs per 8 handle hits, want 0", st, obj, got)
			}
		}
	}
}

// A warm compressed section: every line carries a snapshot lent by the
// section, and a dirty eviction plans its write-back against it. Each step
// misses on the next of 64 lines over 8 direct-mapped slots, so it evicts the
// line it fetched 8 steps before, left the same way — clean, dirtied back to
// its fetched bytes (the plan skips the write), one field changed (a patch,
// whose ranges the queue keeps by value) or both elements rewritten (the plan
// gives up and the full line ships). Fetching, snapshotting, planning,
// parking and draining allocate nothing in any of the four cycles.
func TestCompressedLineCycleAllocatesNothing(t *testing.T) {
	r, clk := mkRuntime(t, func(c *Config) {
		c.Sections[0].Cache = cache.Config{Name: "items", Structure: cache.Direct, LineBytes: 128, SizeBytes: 1 << 10}
		c.Sections[0].Compress = true
		c.WritebackQueueLines = 8
	})
	r.tr = &transporttest.QuietLink{}
	// What each element's line is fetched as (QuietLink fills a line with
	// byte(tag >> 7)), and the same bytes flipped: made up front, so that
	// what is counted is the runtime's.
	items := r.objs["items"]
	fetched, flipped := make([][]byte, 128), make([][]byte, 128)
	for e := range fetched {
		fill := byte((items.farBase + uint64(e)*64) >> 7)
		fetched[e], flipped[e] = bytes.Repeat([]byte{fill}, 64), bytes.Repeat([]byte{^fill}, 64)
	}
	access := func(elem int64, f ir.Field, buf []byte, write bool) {
		if err := r.Access(clk, "items", elem, f, buf, write, AccessOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	cycles := []struct {
		name  string
		leave func(elem int64) // elem's line, just fetched
		moved func(d WbqStats) bool
	}{
		{"clean", func(int64) {},
			func(d WbqStats) bool { return d.Enqueued == 0 && d.DeltaSkipped == 0 }},
		{"unchanged", func(e int64) { access(e, fld(0, 8), fetched[e][:8], true) },
			func(d WbqStats) bool { return d.DeltaSkipped > 0 && d.Enqueued == 0 }},
		{"patch", func(e int64) { access(e, fld(0, 8), flipped[e][:8], true) },
			func(d WbqStats) bool { return d.DeltaLines > 0 && d.DeltaLines == d.Enqueued && d.Drains > 0 }},
		{"full line", func(e int64) {
			access(e, fld(0, 64), flipped[e], true)
			access(e+1, fld(0, 64), flipped[e+1], true)
		}, func(d WbqStats) bool { return d.DeltaLines == 0 && d.Enqueued > 0 && d.Drains > 0 }},
	}
	rd := make([]byte, 8)
	for _, c := range cycles {
		elem := int64(0)
		step := func() {
			elem = (elem + 2) % 128
			access(elem, fld(8, 8), rd, false)
			c.leave(elem)
		}
		for range 3 * 64 {
			step()
		}
		st := r.WritebackQueueStats()
		if got := testing.AllocsPerRun(100, step); got != 0 {
			t.Errorf("%s: %v allocs per fetch and eviction, want 0", c.name, got)
		}
		now := r.WritebackQueueStats()
		d := WbqStats{
			Enqueued: now.Enqueued - st.Enqueued, Drains: now.Drains - st.Drains,
			DeltaSkipped: now.DeltaSkipped - st.DeltaSkipped, DeltaLines: now.DeltaLines - st.DeltaLines,
		}
		if !c.moved(d) {
			t.Fatalf("%s: the steps did not leave their lines that way: %+v", c.name, d)
		}
	}
}
