//go:build !race

package swap

import (
	"testing"

	"mira/internal/netmodel"
	"mira/internal/prefetch"
	"mira/internal/sim"
	"mira/internal/transport/transporttest"
)

// nextPages proposes the n pages after the fault from a buffer it keeps.
type nextPages struct {
	n   int64
	out []int64
}

func (*nextPages) Name() string { return "next" }
func (p *nextPages) OnMiss(page int64, out []int64) []int64 {
	for i := int64(1); i <= p.n; i++ {
		out = append(out, page+i)
	}
	return out
}
func (*nextPages) PerMissOverhead() sim.Duration { return 0 }

const allocRegionPages = 64

// warmCache returns a cache of pool pages over a QuietLink that has faulted on
// every page of its region once, dirtying each: every frame is made, every
// scratch slice has reached its size.
func warmCache(tb testing.TB, pool int, pf prefetch.Policy, batch bool) (*Cache, *sim.Clock) {
	tb.Helper()
	cfg := DefaultConfig(int64(pool) * PageBytes)
	cfg.BatchPrefetch = batch
	cfg.Net = netmodel.DefaultConfig()
	c, err := New(cfg, &transporttest.QuietLink{Reply: make([]byte, 16*PageBytes)}, 1<<32, allocRegionPages*PageBytes, pf)
	if err != nil {
		tb.Fatal(err)
	}
	clk := sim.NewClock(0)
	for no := uint64(0); no < 2*allocRegionPages; no++ {
		if err := c.Write(clk, c.base+no%allocRegionPages*PageBytes, []byte{1}); err != nil {
			tb.Fatal(err)
		}
	}
	return c, clk
}

func wantNoAllocs(t *testing.T, what string, runs int, f func()) {
	t.Helper()
	if got := testing.AllocsPerRun(runs, f); got != 0 {
		t.Errorf("%s: %v allocs per run, want 0", what, got)
	}
}

// A warm page plane allocates nothing: frames, list links, the page table and
// the scratch of an advisory issue are all reused.
func TestWarmCacheAllocatesNothing(t *testing.T) {
	var buf [8]byte
	no := uint64(0)
	page := func(c *Cache) uint64 { no++; return c.base + no%allocRegionPages*PageBytes }

	c, clk := warmCache(t, 4, nil, false)
	faults := c.Stats().MajorFaults
	wantNoAllocs(t, "major fault evicting a dirty page", 200, func() {
		_ = c.Write(clk, page(c), buf[:])
	})
	if got := c.Stats().MajorFaults - faults; got < 200 {
		t.Fatalf("only %d of 200 writes faulted", got)
	}
	hot := c.base + no%allocRegionPages*PageBytes
	wantNoAllocs(t, "hit promoting the page, then moving it to the active front", 100, func() {
		_ = c.Read(clk, hot, buf[:])
	})

	c, clk = warmCache(t, 8, &nextPages{n: 1}, false)
	minor := c.Stats().MinorFaults
	wantNoAllocs(t, "major fault with one prefetch, then the minor fault on it", 100, func() {
		_ = c.Read(clk, page(c), buf[:])
	})
	if got := c.Stats().MinorFaults - minor; got < 40 {
		t.Fatalf("only %d minor faults in 100 sequential reads", got)
	}

	c, clk = warmCache(t, 16, &nextPages{n: 8}, true)
	fetched := c.Stats().Prefetches
	wantNoAllocs(t, "fault with a batched prefetch of 8", 100, func() {
		no += 20
		_ = c.Read(clk, page(c), buf[:])
	})
	if got := c.Stats().Prefetches - fetched; got < 500 {
		t.Fatalf("only %d pages prefetched by 100 batches of 8", got)
	}
	wantNoAllocs(t, "FlushAll", 20, func() {
		_ = c.Write(clk, page(c), buf[:])
		_ = c.FlushAll(clk)
	})
}

// BenchmarkSwapFault is the page plane's miss path on the host clock: a
// major fault that evicts a dirty page, over a transport that costs nothing.
func BenchmarkSwapFault(b *testing.B) {
	c, clk := warmCache(b, 16, nil, false)
	var buf [8]byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.Write(clk, c.base+uint64(i%allocRegionPages)*PageBytes, buf[:])
	}
}
