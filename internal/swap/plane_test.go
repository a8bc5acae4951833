package swap

import (
	"bytes"
	"testing"

	"mira/internal/sim"
)

// The page plane's checks over the verbs the runtime calls on a swap cache —
// Read, Write, PrefetchPages and FlushAll — on a region whose last page is
// short. internal/rt runs the same checks on a section-placed and a
// swap-placed object.

// planeLength is the checked region: six pages and a partial seventh.
const planeLength = 6*PageBytes + 1234

func planeRig(t *testing.T) *unalignedRig { return newUnalignedRig(t, 16, planeLength, nil, true) }

// pattern is the byte the checks write at region offset off.
func pattern(off int64) byte { return byte(off*131 + 17) }

func fillPattern(off int64, buf []byte) {
	for i := range buf {
		buf[i] = pattern(off + int64(i))
	}
}

// span returns an access window of up to want bytes at region offset off,
// clipped to the region.
func span(off, want int64) (int64, []byte) {
	off = max(0, min(off, planeLength-1))
	return off, make([]byte, min(want, planeLength-off))
}

func (rig *unalignedRig) access(off int64, buf []byte, write bool) {
	rig.t.Helper()
	var err error
	if write {
		err = rig.c.Write(rig.clk, rig.c.Base()+uint64(off), buf)
	} else {
		err = rig.c.Read(rig.clk, rig.c.Base()+uint64(off), buf)
	}
	if err != nil {
		rig.t.Fatalf("access at offset %d: %v", off, err)
	}
}

func (rig *unalignedRig) flush() {
	rig.t.Helper()
	if err := rig.c.FlushAll(rig.clk); err != nil {
		rig.t.Fatalf("flush: %v", err)
	}
}

func (rig *unalignedRig) prefetch(pnos ...int64) {
	rig.t.Helper()
	if err := rig.c.PrefetchPages(rig.clk, pnos); err != nil {
		rig.t.Fatalf("prefetch: %v", err)
	}
}

// farBytes reads the region's far bytes at off from the node, behind the
// cache.
func (rig *unalignedRig) farBytes(off int64, n int) []byte {
	rig.t.Helper()
	buf := make([]byte, n)
	if err := rig.node.Read(rig.c.Base()+uint64(off), buf); err != nil {
		rig.t.Fatalf("far read: %v", err)
	}
	return buf
}

// TestSwapPlaneConformance runs the checks. Two of the runtime's have no
// page-plane verb left to drive: a range evict and a fence.
func TestSwapPlaneConformance(t *testing.T) {
	t.Run("swap", func(t *testing.T) {
		t.Run("ReadYourWrites", func(t *testing.T) { checkReadYourWrites(planeRig(t)) })
		t.Run("FlushPersists", func(t *testing.T) { checkFlushPersists(planeRig(t)) })
		t.Run("PrefetchAdvisory", func(t *testing.T) { checkPrefetchAdvisory(planeRig(t)) })
		t.Run("PrefetchSeesNewestBytes", func(t *testing.T) { checkPrefetchSeesNewestBytes(planeRig(t)) })
		t.Run("PrefetchedAccessWaitsForArrival", func(t *testing.T) { checkPrefetchedAccessWaits(planeRig(t)) })
		t.Run("TailUnit", func(t *testing.T) { checkTailUnit(planeRig(t)) })
		t.Run("StatsCount", func(t *testing.T) { checkStatsCount(planeRig(t)) })
		t.Run("Determinism", func(t *testing.T) { checkDeterminism(t) })
	})
}

// checkReadYourWrites writes at the region's head, across a page boundary
// and at its tail; each write reads back verbatim.
func checkReadYourWrites(rig *unalignedRig) {
	for _, want := range []int64{0, PageBytes/2 + 1, planeLength - PageBytes/3 - 1} {
		off, buf := span(want, PageBytes*2+PageBytes/2)
		fillPattern(off, buf)
		rig.access(off, buf, true)
		got := make([]byte, len(buf))
		rig.access(off, got, false)
		if !bytes.Equal(got, buf) {
			rig.t.Fatalf("read-your-writes mismatch at offset %d", off)
		}
	}
}

// checkFlushPersists: FlushAll leaves nothing resident and the dirty bytes
// in far memory.
func checkFlushPersists(rig *unalignedRig) {
	off, buf := span(PageBytes/2, PageBytes*3)
	fillPattern(off, buf)
	rig.access(off, buf, true)
	rig.flush()
	if n := rig.c.Resident(); n != 0 {
		rig.t.Fatalf("FlushAll left %d pages resident", n)
	}
	if !bytes.Equal(rig.farBytes(off, len(buf)), buf) {
		rig.t.Fatal("FlushAll did not persist dirty bytes to far memory")
	}
}

// checkPrefetchAdvisory: in-range, duplicate and far out-of-range page
// numbers are all advisory, and prefetched pages carry the far image.
func checkPrefetchAdvisory(rig *unalignedRig) {
	off, buf := span(0, PageBytes*2)
	fillPattern(off, buf)
	rig.access(off, buf, true)
	rig.flush()
	rig.prefetch(0, 1, 0, rig.c.npages()+10)
	got := make([]byte, len(buf))
	rig.access(off, got, false)
	if !bytes.Equal(got, buf) {
		rig.t.Fatal("prefetched bytes differ from far image")
	}
	if st := rig.c.Stats(); st.Prefetches == 0 {
		rig.t.Fatalf("prefetch issued nothing: %+v", st)
	}
}

// checkPrefetchSeesNewestBytes: a page written, flushed and re-requested
// through PrefetchPages then Read returns the newest bytes — twice over, so
// the second round's prefetch races the first round's write-back.
func checkPrefetchSeesNewestBytes(rig *unalignedRig) {
	off, want := span(PageBytes/2, PageBytes*2)
	for round := byte(0); round < 2; round++ {
		for i := range want {
			want[i] = pattern(off+int64(i)) ^ round
		}
		rig.access(off, want, true)
		rig.flush()
		rig.prefetch(off/PageBytes, (off+int64(len(want))-1)/PageBytes)
		got := make([]byte, len(want))
		rig.access(off, got, false)
		if !bytes.Equal(got, want) {
			rig.t.Fatalf("round %d: prefetch after flush served stale bytes", round)
		}
	}
}

// checkPrefetchedAccessWaits: PrefetchPages then Read never completes before
// the page's bytes land, at its frame's readyAt.
func checkPrefetchedAccessWaits(rig *unalignedRig) {
	off, buf := span(0, PageBytes)
	fillPattern(off, buf)
	rig.access(off, buf, true)
	rig.flush()
	rig.prefetch(0)
	if st := rig.c.Stats(); st.Prefetches == 0 {
		rig.t.Fatalf("prefetch of a flushed page issued nothing: %+v", st)
	}
	arrived := rig.c.frames[rig.c.frameOf[0]].readyAt
	if arrived <= rig.clk.Now() {
		rig.t.Fatalf("the prefetched page is ready at %v, not after it was posted at %v: nothing was in flight", arrived, rig.clk.Now())
	}
	got := make([]byte, len(buf))
	rig.access(off, got, false)
	if !bytes.Equal(got, buf) {
		rig.t.Fatal("prefetched bytes differ from the flushed image")
	}
	if rig.clk.Now() < arrived {
		rig.t.Fatalf("read of a prefetched page completed at %v, before its bytes arrived at %v", rig.clk.Now(), arrived)
	}
}

// checkTailUnit: a write to the region's short last page persists.
func checkTailUnit(rig *unalignedRig) {
	tail := int64(planeLength % PageBytes)
	off, buf := span(planeLength-tail, tail)
	fillPattern(off, buf)
	rig.access(off, buf, true)
	rig.flush()
	if !bytes.Equal(rig.farBytes(off, len(buf)), buf) {
		rig.t.Fatal("tail page did not persist")
	}
}

// checkStatsCount: a cold read faults, a warm re-read does not, both count
// as accesses, and what is resident fits the pool.
func checkStatsCount(rig *unalignedRig) {
	off, buf := span(0, PageBytes*2)
	before := rig.c.Stats()
	rig.access(off, buf, false)
	mid := rig.c.Stats()
	if mid.MajorFaults <= before.MajorFaults || mid.Accesses <= before.Accesses {
		rig.t.Fatalf("cold read did not fault or was not counted: %+v -> %+v", before, mid)
	}
	rig.access(off, buf, false)
	after := rig.c.Stats()
	if after.MajorFaults != mid.MajorFaults {
		rig.t.Fatalf("warm re-read faulted: %+v -> %+v", mid, after)
	}
	if after.Accesses <= mid.Accesses {
		rig.t.Fatalf("warm re-read not counted as an access: %+v -> %+v", mid, after)
	}
	if n := rig.c.Resident(); n <= 0 || n > rig.c.Capacity() {
		rig.t.Fatalf("resident %d outside (0, capacity %d]", n, rig.c.Capacity())
	}
}

// checkDeterminism runs one mixed script on two fresh caches and requires
// the same elapsed time, counters and far image.
func checkDeterminism(t *testing.T) {
	run := func(rig *unalignedRig) (sim.Time, Stats, []byte) {
		for i := int64(0); i < 4; i++ {
			off, buf := span(i*PageBytes/2, PageBytes)
			fillPattern(off, buf)
			rig.access(off, buf, true)
		}
		rig.prefetch(0, 1)
		off, got := span(0, PageBytes*2)
		rig.access(off, got, false)
		rig.flush()
		return rig.clk.Now(), rig.c.Stats(), rig.farBytes(off, len(got))
	}
	t1, s1, b1 := run(planeRig(t))
	t2, s2, b2 := run(planeRig(t))
	if t1 != t2 {
		t.Fatalf("elapsed time diverged across identical runs: %v vs %v", t1, t2)
	}
	if s1 != s2 {
		t.Fatalf("stats diverged across identical runs:\n%+v\n%+v", s1, s2)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("far image diverged across identical runs")
	}
}
