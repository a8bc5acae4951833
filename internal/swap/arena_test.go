package swap

import (
	"bytes"
	"errors"
	"testing"

	"mira/internal/sim"
	"mira/internal/transport"
)

// A fetch that fails after its eviction must put the frame back: the pool
// keeps every frame it made, resident or free, whatever the transport does.
// diffPair.both checks that accounting (checkArena), and the reference
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
	if d.cn.Resident() != 1 || len(d.cn.frames) != 2 || len(d.cn.free) != 1 {
		t.Fatalf("resident %d, frames %d, free %d; want 1, 2, 1", d.cn.Resident(), len(d.cn.frames), len(d.cn.free))
	}
	// Full pool: the victim is gone (as in the reference), its frame is free
	// again, and the next fault reuses it instead of making a fourth.
	_, _ = read(1), read(2)
	d.failNext(1, transport.ErrFarUnavailable)
	if err := read(3); !errors.Is(err, transport.ErrFarUnavailable) {
		t.Fatalf("read with the far node unavailable: %v", err)
	}
	if d.cn.Resident() != 2 || len(d.cn.free) != 1 {
		t.Fatalf("resident %d, free %d; want 2, 1", d.cn.Resident(), len(d.cn.free))
	}
	_ = read(3)
	if len(d.cn.frames) != 3 {
		t.Fatalf("%d frames made for a pool of 3", len(d.cn.frames))
	}
}

// A failing gather drops every placeholder of the batch exactly once —
// including those a later allocation of the same batch already evicted, whose
// frame by then holds another placeholder.
func TestFailedBatchGivesPlaceholdersBack(t *testing.T) {
	hard := errors.New("injected hard failure")
	for _, fail := range []error{transport.ErrTimeout, hard} {
		d := newDiffPair(t, 3, 8*PageBytes, diffPolicy{}, true)
		prefetch := func(pnos ...int64) error {
			return d.both("prefetch", func(c swapUnderTest, clk *sim.Clock) ([]byte, error) {
				return nil, c.PrefetchPages(clk, pnos)
			})
		}
		// Six placeholders through three frames: 3, 4 and 5 evict 0, 1 and 2.
		d.failNext(1, fail)
		if err := prefetch(0, 1, 2, 3, 4, 5); (err != nil) != (fail == hard) {
			t.Fatalf("batch with a gather failing with %v returned %v", fail, err)
		}
		if d.cn.Resident() != 0 || len(d.cn.free) != 3 {
			t.Fatalf("after the failed batch: resident %d, free %d; want 0, 3", d.cn.Resident(), len(d.cn.free))
		}
		// The same batch again, now landing: the evicted placeholders' bytes
		// must not reach the frames' new tenants.
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

// dirtyFrames leaves every frame of the pool free with 0xFF in all 4 KiB of
// its buffer: the previous life a recycled frame must not leak.
func dirtyFrames(t *testing.T, r *unalignedRig) {
	t.Helper()
	ff := bytes.Repeat([]byte{0xFF}, PageBytes)
	for no := 0; no < r.c.Capacity(); no++ {
		if err := r.c.Write(r.clk, r.c.Base()+uint64(no)*PageBytes, ff); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.c.FlushAll(r.clk); err != nil {
		t.Fatal(err)
	}
	for _, p := range r.c.frames {
		if !bytes.Equal(p.data[:PageBytes], ff) {
			t.Fatal("setup: frame not dirtied")
		}
	}
}

// The degraded write-allocate page is made without a fetch; on a recycled
// frame it must still start from zeroes, as make gave it.
func TestRecycledFrameNoFetchIsZeroed(t *testing.T) {
	r := newUnalignedRig(t, 2, 4*PageBytes, nil, false)
	dirtyFrames(t, r)
	i, err := r.c.fetch(r.clk.Now(), 3, false, true)
	if err != nil {
		t.Fatal(err)
	}
	if p := r.c.frames[i]; !bytes.Equal(p.data, make([]byte, PageBytes)) {
		t.Fatal("noFetch page on a recycled frame is not zeroed")
	}
}

// The region's last page is short. A recycled frame is sliced to it: the
// fault and the write-back move only the page's bytes, and nothing of the
// frame's previous tenant travels behind them.
func TestRecycledFrameShortTailPage(t *testing.T) {
	const tailBytes = 100
	const length = 2*PageBytes + tailBytes
	r := newUnalignedRig(t, 2, length, nil, false)
	dirtyFrames(t, r)
	before := r.tr.BytesMoved()
	if err := r.c.Write(r.clk, r.c.Base()+2*PageBytes+10, []byte{7}); err != nil {
		t.Fatal(err)
	}
	if p := r.c.frames[r.c.frameOf[2]]; len(p.data) != tailBytes {
		t.Fatalf("tail page holds %d bytes, want %d", len(p.data), tailBytes)
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
