package swap

import (
	"bytes"
	"errors"
	"testing"

	"mira/internal/cache"
	"mira/internal/sim"
	"mira/internal/transport"
)

// A fetch that fails after its eviction must give the claimed line back: the
// pool section's slots are all resident or vacant, whatever the transport
// does. diffPair.both checks that accounting (checkSlots), and the reference
// model's Resident(), after every step.
func TestFailedFetchGivesFrameBack(t *testing.T) {
	hard := errors.New("injected hard failure")
	d := newDiffPair(t, 3, 8*PageBytes, diffPolicy{}, false)
	read := func(no int64) error {
		return d.both("read", func(c swapUnderTest, clk *sim.Clock) ([]byte, error) {
			buf := make([]byte, 8)
			return buf, c.Read(clk, d.cn.base+uint64(no)*PageBytes, buf)
		})
	}
	// Room in the pool: the failed fault leaves residency as it was.
	_ = read(0)
	d.failNext(1, hard)
	if err := read(1); !errors.Is(err, hard) {
		t.Fatalf("read with a failing transport: %v", err)
	}
	if o := checkSlots(t, d.cn); d.cn.Resident() != 1 || o.Made != 2 || o.Vacant != 1 {
		t.Fatalf("resident %d, slots %d, vacant %d; want 1, 2, 1", d.cn.Resident(), o.Made, o.Vacant)
	}
	// Full pool: the victim is gone (as in the reference), its slot is vacant
	// again, and the next fault reuses it instead of making a fourth.
	_, _ = read(1), read(2)
	d.failNext(1, transport.ErrFarUnavailable)
	if err := read(3); !errors.Is(err, transport.ErrFarUnavailable) {
		t.Fatalf("read with the far node unavailable: %v", err)
	}
	if o := checkSlots(t, d.cn); d.cn.Resident() != 2 || o.Vacant != 1 {
		t.Fatalf("resident %d, vacant %d; want 2, 1", d.cn.Resident(), o.Vacant)
	}
	_ = read(3)
	if o := checkSlots(t, d.cn); o.Made != 3 {
		t.Fatalf("%d slots made for a pool of 3", o.Made)
	}
}

// A pool of one page whose page is pinned — the demand page while its fault's
// prefetches claim — has no victim: the claim fails with errNoEvictable, and
// the advisory fetch drops the proposal instead of evicting the page.
func TestPinnedPageHasNoVictim(t *testing.T) {
	r := newUnalignedRig(t, 1, 4*PageBytes, nil, false)
	buf := make([]byte, 8)
	if err := r.c.Read(r.clk, r.c.Base(), buf); err != nil {
		t.Fatal(err)
	}
	l, _ := r.c.sec.Peek(0)
	l.Pinned = true
	if _, err := r.c.claim(r.clk.Now(), 1, true); err != errNoEvictable {
		t.Fatalf("claim in a full pool of one pinned page: %v, want errNoEvictable", err)
	}
	l.Pinned = false

	r = newUnalignedRig(t, 1, 4*PageBytes, seqPrefetch{n: 1}, false)
	if err := r.c.Read(r.clk, r.c.Base(), buf); err != nil {
		t.Fatal(err)
	}
	st := r.c.Stats()
	if st.Prefetch.Dropped != 1 || st.Prefetch.Issued != 0 || st.Evictions != 0 || !r.c.present(0) {
		t.Fatalf("fault with a prefetch in a pool of one page: %+v, page resident %v", st, r.c.present(0))
	}
}

// A failing gather drops every placeholder of the batch exactly once —
// including those a later allocation of the same batch already evicted, whose
// line by then holds another placeholder.
func TestFailedBatchGivesPlaceholdersBack(t *testing.T) {
	hard := errors.New("injected hard failure")
	for _, fail := range []error{transport.ErrTimeout, hard} {
		d := newDiffPair(t, 3, 8*PageBytes, diffPolicy{}, true)
		prefetch := func(pnos ...int64) error {
			return d.both("prefetch", func(c swapUnderTest, clk *sim.Clock) ([]byte, error) {
				return nil, c.PrefetchPages(clk, pnos)
			})
		}
		// Six placeholders through three slots: 3, 4 and 5 evict 0, 1 and 2.
		d.failNext(1, fail)
		if err := prefetch(0, 1, 2, 3, 4, 5); (err != nil) != (fail == hard) {
			t.Fatalf("batch with a gather failing with %v returned %v", fail, err)
		}
		if o := checkSlots(t, d.cn); d.cn.Resident() != 0 || o.Vacant != 3 {
			t.Fatalf("after the failed batch: resident %d, vacant %d; want 0, 3", d.cn.Resident(), o.Vacant)
		}
		// The same batch again, now landing: the evicted placeholders' bytes
		// must not reach the lines' new tenants.
		if err := prefetch(0, 1, 2, 3, 4, 5); err != nil {
			t.Fatal(err)
		}
		for no := int64(3); no <= 5; no++ {
			_ = d.both("read", func(c swapUnderTest, clk *sim.Clock) ([]byte, error) {
				buf := make([]byte, PageBytes)
				return buf, c.Read(clk, d.cn.base+uint64(no)*PageBytes, buf)
			})
		}
		// A dirty victim whose write-back fails mid-batch is a hard error;
		// the placeholders already placed go back.
		_ = d.both("write", func(c swapUnderTest, clk *sim.Clock) ([]byte, error) {
			return nil, c.Write(clk, d.cn.base+3*PageBytes, []byte{1})
		})
		d.failNext(1, hard) // the first transport operation is that write-back
		if err := prefetch(6, 7, 0, 1); !errors.Is(err, hard) {
			t.Fatalf("batch with a failing victim write-back returned %v", err)
		}
	}
}

// dirtyBuffers leaves every page buffer of the pool in the section's stock
// with 0xFF in all 4 KiB: the previous life a recycled buffer must not leak.
// It returns the buffers.
func dirtyBuffers(t *testing.T, r *unalignedRig) map[*byte]bool {
	t.Helper()
	ff := bytes.Repeat([]byte{0xFF}, PageBytes)
	for no := 0; no < r.c.Capacity(); no++ {
		if err := r.c.Write(r.clk, r.c.Base()+uint64(no)*PageBytes, ff); err != nil {
			t.Fatal(err)
		}
	}
	bufs := map[*byte]bool{}
	r.c.sec.ForEachResident(func(l *cache.Line) {
		if !bytes.Equal(l.Data, ff) {
			t.Fatal("setup: buffer not dirtied")
		}
		bufs[&l.Data[0]] = true
	})
	if err := r.c.FlushAll(r.clk); err != nil {
		t.Fatal(err)
	}
	return bufs
}

// claimNoFetch makes page no resident as a degraded write-allocate fault
// does, without a fetch, and returns its line.
func claimNoFetch(t *testing.T, c *Cache, now sim.Time, no int64) *cache.Line {
	t.Helper()
	l, err := c.claim(now, no, false)
	if err == nil {
		err = c.fetch(now, l, true)
	}
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// The degraded write-allocate page is made without a fetch; on a recycled
// buffer it must still start from zeroes, as make gave it.
func TestRecycledFrameNoFetchIsZeroed(t *testing.T) {
	r := newUnalignedRig(t, 2, 4*PageBytes, nil, false)
	recycled := dirtyBuffers(t, r)
	l := claimNoFetch(t, r.c, r.clk.Now(), 3)
	if !recycled[&l.Data[0]] {
		t.Fatal("setup: the page did not take a recycled buffer")
	}
	if !bytes.Equal(l.Data, make([]byte, PageBytes)) {
		t.Fatal("noFetch page on a recycled buffer is not zeroed")
	}
}

// The region's last page is short. Its line keeps a whole recycled buffer,
// but the fault and the write-back move only the page's bytes, and nothing of
// the buffer's previous tenant stays behind them.
func TestRecycledFrameShortTailPage(t *testing.T) {
	const tailBytes = 100
	const length = 2*PageBytes + tailBytes
	r := newUnalignedRig(t, 2, length, nil, false)
	recycled := dirtyBuffers(t, r)
	before := r.tr.BytesMoved()
	if err := r.c.Write(r.clk, r.c.Base()+2*PageBytes+10, []byte{7}); err != nil {
		t.Fatal(err)
	}
	l, _ := r.c.sec.Peek(2 * PageBytes)
	if !recycled[&l.Data[0]] {
		t.Fatal("setup: the tail page did not take a recycled buffer")
	}
	if !bytes.Equal(l.Data[tailBytes:], make([]byte, PageBytes-tailBytes)) {
		t.Fatal("the tail page's buffer keeps its previous tenant's bytes past the page")
	}
	if err := r.c.FlushAll(r.clk); err != nil {
		t.Fatal(err)
	}
	if moved := r.tr.BytesMoved() - before; moved != 2*tailBytes {
		t.Fatalf("tail page fault + write-back moved %d bytes, want %d", moved, 2*tailBytes)
	}
	want := make([]byte, tailBytes)
	for i := range want {
		want[i] = byte((2*PageBytes + i) * 7)
	}
	want[10] = 7
	tailGot := make([]byte, tailBytes)
	if err := r.node.Read(r.c.Base()+2*PageBytes, tailGot); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tailGot, want) {
		t.Fatal("tail page bytes wrong after write-back")
	}
}

// A closed session's pool storage serves the next session's pool (Release,
// then cache's free list): the new pool's pages land in the old pool's
// buffers, and a recycled buffer shows nothing of its previous tenant — a
// fetched page reads the far copy, a degraded write-allocate page starts
// from zeroes. Releasing a pool twice is harmless. The structure-level reuse
// (slot array, buffers, one hand-over per section) is cache's
// TestReleasedStorageIsReused.
func TestReleasedStorageIsReusedByTheNextPool(t *testing.T) {
	first := newUnalignedRig(t, 2, 4*PageBytes, nil, false)
	recycled := dirtyBuffers(t, first)
	first.c.Release()
	first.c.Release()

	second := newUnalignedRig(t, 2, 4*PageBytes, nil, false)
	got := make([]byte, PageBytes)
	if err := second.c.Read(second.clk, second.c.Base(), got); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, PageBytes)
	for i := range want {
		want[i] = byte(i * 7)
	}
	if !bytes.Equal(got, want) {
		t.Error("a page fetched into a recycled buffer does not read its far copy")
	}
	if l := claimNoFetch(t, second.c, second.clk.Now(), 3); !bytes.Equal(l.Data, make([]byte, PageBytes)) {
		t.Error("noFetch page on a buffer of the previous session is not zeroed")
	}
	second.c.sec.ForEachResident(func(l *cache.Line) {
		if !recycled[&l.Data[0]] {
			t.Error("the second pool made a buffer while the free list held spares")
		}
	})
}
