package swap

import (
	"bytes"
	"testing"

	"mira/internal/farmem"
	"mira/internal/netmodel"
	"mira/internal/prefetch"
	"mira/internal/sim"
	"mira/internal/transport"
	"mira/internal/transport/transporttest"
)

// testRegion allocates a far region of length bytes filled with a pattern
// and returns a transport plus the region base.
func testRegion(t *testing.T, length int64) (*transport.T, uint64) {
	t.Helper()
	node := farmem.NewNode(farmem.NodeConfig{Capacity: 1 << 24, CPUSlowdown: 1})
	tr := transport.New(node, netmodel.DefaultConfig())
	base, err := node.Alloc(uint64(length))
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, length)
	for i := range data {
		data[i] = byte(i * 7)
	}
	if err := node.Write(base, data); err != nil {
		t.Fatal(err)
	}
	return tr, base
}

// newCache builds a cache over a fresh region. Its link scribbles over the
// previous gather reply at the start of every call, as the links of the
// other two rigs of this suite do (newUnalignedRig, newDiffPair): the batched
// prefetch must have copied every page out by then.
func newCache(t *testing.T, poolPages int, length int64, pf prefetch.Policy) (*Cache, *sim.Clock) {
	t.Helper()
	tr, base := testRegion(t, length)
	c, err := New(DefaultConfig(int64(poolPages)*PageBytes), transporttest.Scribble(tr), base, length, pf)
	if err != nil {
		t.Fatal(err)
	}
	return c, sim.NewClock(0)
}

func TestNewValidation(t *testing.T) {
	tr, base := testRegion(t, PageBytes)
	if _, err := New(DefaultConfig(0), tr, base, PageBytes, nil); err == nil {
		t.Fatal("zero pool accepted")
	}
	if _, err := New(DefaultConfig(PageBytes), tr, base, 0, nil); err == nil {
		t.Fatal("zero-length region accepted")
	}
}

func TestReadFaultsAndReturnsData(t *testing.T) {
	c, clk := newCache(t, 4, 8*PageBytes, nil)
	buf := make([]byte, 16)
	if err := c.Read(clk, c.Base()+100, buf); err != nil {
		t.Fatal(err)
	}
	for i, b := range buf {
		if want := byte((100 + i) * 7); b != want {
			t.Fatalf("buf[%d] = %d, want %d", i, b, want)
		}
	}
	st := c.Stats()
	if st.MajorFaults != 1 {
		t.Fatalf("MajorFaults = %d, want 1", st.MajorFaults)
	}
	if clk.Now() == 0 {
		t.Fatal("fault charged no time")
	}
}

func TestSecondAccessIsHit(t *testing.T) {
	c, clk := newCache(t, 4, 8*PageBytes, nil)
	buf := make([]byte, 8)
	_ = c.Read(clk, c.Base(), buf)
	afterFault := clk.Now()
	_ = c.Read(clk, c.Base()+8, buf)
	if c.Stats().MajorFaults != 1 {
		t.Fatalf("second access faulted: %d major faults", c.Stats().MajorFaults)
	}
	hitCost := clk.Now().Sub(afterFault)
	faultCost := afterFault.Sub(0)
	if hitCost >= faultCost/10 {
		t.Fatalf("hit cost %v not far below fault cost %v", hitCost, faultCost)
	}
}

func TestWriteReadBack(t *testing.T) {
	c, clk := newCache(t, 4, 8*PageBytes, nil)
	want := []byte{1, 2, 3, 4, 5}
	if err := c.Write(clk, c.Base()+10, want); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 5)
	if err := c.Read(clk, c.Base()+10, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("read back %v, want %v", got, want)
	}
}

func TestPageCrossingAccess(t *testing.T) {
	c, clk := newCache(t, 4, 8*PageBytes, nil)
	src := make([]byte, 100)
	for i := range src {
		src[i] = byte(200 - i)
	}
	far := c.Base() + PageBytes - 50 // straddles pages 0 and 1
	if err := c.Write(clk, far, src); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 100)
	if err := c.Read(clk, far, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, src) {
		t.Fatal("page-crossing write/read mismatch")
	}
	if c.Stats().MajorFaults != 2 {
		t.Fatalf("MajorFaults = %d, want 2", c.Stats().MajorFaults)
	}
}

func TestEvictionWritebackPersists(t *testing.T) {
	c, clk := newCache(t, 1, 8*PageBytes, nil) // one-page pool
	want := []byte{9, 8, 7}
	if err := c.Write(clk, c.Base(), want); err != nil {
		t.Fatal(err)
	}
	// Touch another page; page 0 must be evicted and written back.
	buf := make([]byte, 1)
	if err := c.Read(clk, c.Base()+2*PageBytes, buf); err != nil {
		t.Fatal(err)
	}
	if c.Stats().Writebacks != 1 {
		t.Fatalf("Writebacks = %d, want 1", c.Stats().Writebacks)
	}
	// Re-read page 0: must come back with the written data.
	got := make([]byte, 3)
	if err := c.Read(clk, c.Base(), got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("after eviction round-trip got %v, want %v", got, want)
	}
}

func TestPoolNeverExceedsCapacity(t *testing.T) {
	c, clk := newCache(t, 3, 32*PageBytes, nil)
	buf := make([]byte, 1)
	for i := int64(0); i < 32; i++ {
		if err := c.Read(clk, c.Base()+uint64(i)*PageBytes, buf); err != nil {
			t.Fatal(err)
		}
		if c.Resident() > c.Capacity() {
			t.Fatalf("resident %d exceeds capacity %d", c.Resident(), c.Capacity())
		}
	}
}

func TestOutOfRegionAccess(t *testing.T) {
	c, clk := newCache(t, 2, 2*PageBytes, nil)
	if err := c.Read(clk, c.Base()+2*PageBytes, make([]byte, 1)); err == nil {
		t.Fatal("read past region succeeded")
	}
	if err := c.Read(clk, c.Base()-1, make([]byte, 1)); err == nil {
		t.Fatal("read below region succeeded")
	}
}

// seqPrefetch prefetches the next n pages after a fault.
type seqPrefetch struct{ n int64 }

func (seqPrefetch) Name() string { return "seq" }
func (p seqPrefetch) OnMiss(page int64, out []int64) []int64 {
	for i := int64(1); i <= p.n; i++ {
		out = append(out, page+i)
	}
	return out
}
func (seqPrefetch) PerMissOverhead() sim.Duration { return 0 }

func TestPrefetchTurnsMajorIntoMinorFaults(t *testing.T) {
	c, clk := newCache(t, 8, 16*PageBytes, seqPrefetch{n: 2})
	buf := make([]byte, 1)
	for i := int64(0); i < 8; i++ {
		if err := c.Read(clk, c.Base()+uint64(i)*PageBytes, buf); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.MajorFaults >= 8 {
		t.Fatalf("prefetching did not reduce major faults: %d", st.MajorFaults)
	}
	if st.MinorFaults == 0 {
		t.Fatal("no minor faults despite prefetching")
	}
	if st.Prefetch.Useful == 0 {
		t.Fatal("no prefetched pages were used")
	}
}

func TestPrefetchFasterThanDemand(t *testing.T) {
	run := func(pf prefetch.Policy) sim.Duration {
		c, clk := newCache(t, 16, 64*PageBytes, pf)
		buf := make([]byte, 1)
		for i := int64(0); i < 64; i++ {
			if err := c.Read(clk, c.Base()+uint64(i)*PageBytes, buf); err != nil {
				t.Fatal(err)
			}
		}
		return clk.Now().Sub(0)
	}
	demand := run(nil)
	prefetched := run(seqPrefetch{n: 4})
	if prefetched >= demand {
		t.Fatalf("sequential prefetch (%v) not faster than demand paging (%v)", prefetched, demand)
	}
}

func TestPrefetchOutOfRangeIgnored(t *testing.T) {
	c, clk := newCache(t, 8, 2*PageBytes, seqPrefetch{n: 8})
	buf := make([]byte, 1)
	if err := c.Read(clk, c.Base()+PageBytes, buf); err != nil {
		t.Fatal(err)
	}
	// Prefetcher suggested pages 2..9 which do not exist; no error, no
	// fetch beyond the region.
	if got := c.Stats().PagesFetched; got != 1 {
		t.Fatalf("PagesFetched = %d, want 1", got)
	}
}

// missSpy counts the misses its readahead policy hears of.
type missSpy struct {
	prefetch.Readahead
	misses int
}

func (s *missSpy) OnMiss(page int64, out []int64) []int64 {
	s.misses++
	return s.Readahead.OnMiss(page, out)
}

// TestTouchConsultsOnlyStreamPolicies: a minor fault reaches the policy only
// through prefetch.StreamTopUp. A reactive policy hears of major faults
// alone; Programmed tops its window up on every touch that drains half of it.
func TestTouchConsultsOnlyStreamPolicies(t *testing.T) {
	buf := make([]byte, 1)
	read := func(c *Cache, clk *sim.Clock, pages ...int64) {
		t.Helper()
		for _, no := range pages {
			if err := c.Read(clk, c.Base()+uint64(no)*PageBytes, buf); err != nil {
				t.Fatal(err)
			}
		}
	}
	spy := &missSpy{Readahead: prefetch.Readahead{N: 2}}
	c, clk := newCache(t, 8, 16*PageBytes, spy)
	read(c, clk, 0, 1, 2)
	if st := c.Stats(); st.MajorFaults != 1 || st.MinorFaults != 2 || spy.misses != 1 {
		t.Fatalf("readahead: %d major, %d minor faults, %d consults; want 1, 2, 1",
			st.MajorFaults, st.MinorFaults, spy.misses)
	}

	c, clk = newCache(t, 8, 16*PageBytes, prefetch.NewProgrammed([]int64{0, 1, 2, 3, 4, 5, 6, 7}, 2))
	read(c, clk, 0, 1, 2, 3, 4, 5, 6, 7)
	if st := c.Stats(); st.MajorFaults != 1 || st.MinorFaults != 7 || st.Prefetch.Issued != 7 {
		t.Fatalf("programmed: %d major, %d minor faults, %d prefetches; want 1, 7, 7",
			st.MajorFaults, st.MinorFaults, st.Prefetch.Issued)
	}
}

// TestProgrammedWindowCappedToPool: installing a windowed policy caps its
// window to half the pool.
func TestProgrammedWindowCappedToPool(t *testing.T) {
	p := prefetch.NewProgrammed([]int64{0, 1, 2}, 64)
	newCache(t, 16, 32*PageBytes, p)
	if got := p.Window(); got != 8 {
		t.Fatalf("window 64 on a 16-page pool: Window() = %d, want 8", got)
	}
}

func TestFlushAllPersistsDirtyPages(t *testing.T) {
	tr, base := testRegion(t, 4*PageBytes)
	c, err := New(DefaultConfig(4*PageBytes), transporttest.Scribble(tr), base, 4*PageBytes, nil)
	if err != nil {
		t.Fatal(err)
	}
	clk := sim.NewClock(0)
	want := []byte{42, 43}
	_ = c.Write(clk, c.Base()+PageBytes, want)
	if err := c.FlushAll(clk); err != nil {
		t.Fatal(err)
	}
	if c.Resident() != 0 {
		t.Fatalf("resident pages after flush: %d", c.Resident())
	}
	got := make([]byte, 2)
	if err := tr.Node.Read(c.Base()+PageBytes, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("far memory has %v, want %v", got, want)
	}
}

func TestLRUKeepsHotPage(t *testing.T) {
	c, clk := newCache(t, 2, 16*PageBytes, nil)
	buf := make([]byte, 1)
	hot := c.Base()
	_ = c.Read(clk, hot, buf)
	_ = c.Read(clk, hot, buf) // promote to active
	for i := int64(1); i < 10; i++ {
		_ = c.Read(clk, c.Base()+uint64(i)*PageBytes, buf)
		_ = c.Read(clk, hot, buf)
	}
	st := c.Stats()
	// The hot page faulted once; every later access hit.
	if st.MajorFaults != 10 {
		t.Fatalf("MajorFaults = %d, want 10 (1 hot + 9 scan)", st.MajorFaults)
	}
}

func TestShortFinalPage(t *testing.T) {
	// Region not page-aligned: last page is short.
	c, clk := newCache(t, 2, PageBytes+100, nil)
	buf := make([]byte, 50)
	if err := c.Read(clk, c.Base()+PageBytes+25, buf); err != nil {
		t.Fatal(err)
	}
	if err := c.Read(clk, c.Base()+PageBytes+60, make([]byte, 100)); err == nil {
		t.Fatal("read past short final page succeeded")
	}
}

func TestResetStats(t *testing.T) {
	c, clk := newCache(t, 2, 2*PageBytes, nil)
	_ = c.Read(clk, c.Base(), make([]byte, 1))
	c.ResetStats()
	if c.Stats() != (Stats{}) {
		t.Fatal("stats not reset")
	}
}
