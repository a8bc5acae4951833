//go:build !race

package rt

import (
	"math/rand"
	"testing"

	"mira/internal/cache"
	"mira/internal/prefetch"
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
