package rt

import (
	"bytes"
	"testing"

	"mira/internal/cache"
	"mira/internal/cluster"
	"mira/internal/farmem"
	"mira/internal/ir"
	"mira/internal/prefetch"
	"mira/internal/sim"
	"mira/internal/transport"
)

// planeRig is one runtime serving one object whose length is not a multiple
// of its placement's transfer unit — the line of a cache section or the
// swap page — with its one-node pool and a tap on the link behind it. The checks
// below drive it only through the verbs the executor calls: Access,
// PrefetchBatch, FlushObject, Fence and FlushAll.
type planeRig struct {
	r      *Runtime
	pool   *cluster.Pool
	o      *objectRT
	length int64
	unit   int64
	link   *arrivalLink
}

// arrivalLink notes when the bytes of the last read posted on the link under
// it land.
type arrivalLink struct {
	transport.Link
	last sim.Time
}

func (l *arrivalLink) ReadOneSided(now sim.Time, addr uint64, buf []byte) (sim.Time, error) {
	done, err := l.Link.ReadOneSided(now, addr, buf)
	l.last = done
	return done, err
}

func (l *arrivalLink) GatherOneSided(now sim.Time, addrs []uint64, sizes []int) ([]byte, sim.Time, error) {
	data, done, err := l.Link.GatherOneSided(now, addrs, sizes)
	l.last = done
	return data, done, err
}

// planeElemBytes is the element size of both rigs' objects.
const planeElemBytes = 8

func newPlaneRig(t *testing.T, count int64, unit int64, cfg Config, place Placement) *planeRig {
	t.Helper()
	b := ir.NewBuilder("planes")
	b.Object("obj", planeElemBytes, count, ir.F("v", 0, planeElemBytes))
	b.Func("main")
	cfg.LocalBudget = 1 << 20
	cfg.Placements = map[string]Placement{"obj": place}
	node := farmem.NewNode(farmem.NodeConfig{Capacity: 1 << 26, CPUSlowdown: 1})
	r, err := New(cfg, node)
	if err != nil {
		t.Fatal(err)
	}
	link := &arrivalLink{Link: r.tr}
	r.tr = link // before Bind, so the swap pool drives it too
	if err := r.Bind(b.MustProgram()); err != nil {
		t.Fatal(err)
	}
	return &planeRig{r: r, pool: r.Pool(), o: r.objs["obj"], length: count * planeElemBytes, unit: unit, link: link}
}

// lineRig serves 1000 bytes from a section of 64-byte lines.
func lineRig(t *testing.T) *planeRig {
	return newPlaneRig(t, 125, 64, Config{
		Sections: []SectionSpec{{
			Cache: cache.Config{Name: "obj", Structure: cache.SetAssoc, Ways: 4, LineBytes: 64, SizeBytes: 2 << 10},
		}},
	}, Placement{Kind: PlaceSection, Section: 0})
}

// pageRig serves 4936 bytes from the swap pool, its last page partial.
func pageRig(t *testing.T) *planeRig {
	return newPlaneRig(t, 617, 4096, Config{SwapPool: 16 << 10}, Placement{Kind: PlaceSwap})
}

func (p *planeRig) access(clk *sim.Clock, off int64, buf []byte, write bool) error {
	return p.r.Access(clk, "obj", 0, ir.Field{Offset: int(off), Bytes: len(buf)}, buf, write, AccessOpts{})
}

// prefetch posts one batch with an entry for each object offset.
func (p *planeRig) prefetch(clk *sim.Clock, offs ...int64) error {
	entries := make([]BatchEntry, len(offs))
	for i, off := range offs {
		entries[i] = BatchEntry{Obj: "obj", Elem: off / planeElemBytes, Field: ir.Field{Offset: int(off % planeElemBytes)}}
	}
	return p.r.PrefetchBatch(clk, entries)
}

func (p *planeRig) flush(clk *sim.Clock) error { return p.r.FlushObject(clk, "obj") }

// farRead reads the object's far bytes at off from the pool, behind the
// cache.
func (p *planeRig) farRead(off int64, buf []byte) error {
	return p.pool.Read(p.o.farBase+uint64(off), buf)
}

// span returns an access window of up to want bytes at off, clipped to the
// object.
func (p *planeRig) span(off, want int64) (int64, []byte) {
	off = max(0, min(off, p.length-1))
	return off, make([]byte, min(want, p.length-off))
}

// pattern is the byte the checks write at object offset off.
func pattern(off int64) byte { return byte(off*131 + 17) }

func fillPattern(off int64, buf []byte) {
	for i := range buf {
		buf[i] = pattern(off + int64(i))
	}
}

// planeCounts is what the checks read of the placement's counters.
type planeCounts struct {
	accesses, hits, misses, evictions, writebacks, issued, useful int64
}

func (p *planeRig) counts() planeCounts {
	pf := p.r.PrefetchStats()
	if p.o.place.Kind == PlaceSwap {
		st := p.r.SwapStats()
		return planeCounts{st.Accesses, st.Accesses - st.MajorFaults, st.MajorFaults, st.Evictions, st.Writebacks, pf.Issued, pf.Useful}
	}
	st := p.r.SectionStats(0)
	return planeCounts{st.Hits + st.Misses, st.Hits, st.Misses, st.Evictions, st.Writebacks, pf.Issued, pf.Useful}
}

// resident reports how many units the placement holds and can hold.
func (p *planeRig) resident() (n, capacity int) {
	if p.o.place.Kind == PlaceSwap {
		return p.r.swapC.Resident(), p.r.swapC.Capacity()
	}
	sec := p.r.secs[0].sec
	sec.ForEachResident(func(*cache.Line) { n++ })
	return n, sec.Config().Lines()
}

// TestLinePlaneConformance runs the plane checks on a section-placed object.
func TestLinePlaneConformance(t *testing.T) { runPlaneChecks(t, "rt.line", lineRig) }

// TestPagePlaneConformanceViaRuntime runs them on a swap-placed object.
func TestPagePlaneConformanceViaRuntime(t *testing.T) { runPlaneChecks(t, "rt.page", pageRig) }

func runPlaneChecks(t *testing.T, name string, mk func(*testing.T) *planeRig) {
	t.Run(name, func(t *testing.T) {
		t.Run("ReadYourWrites", func(t *testing.T) { checkReadYourWrites(t, mk(t)) })
		t.Run("FlushPersists", func(t *testing.T) { checkFlushPersists(t, mk(t)) })
		t.Run("EvictRangePersists", func(t *testing.T) { checkFlushObjectPersists(t, mk(t)) })
		t.Run("PrefetchAdvisory", func(t *testing.T) { checkPrefetchAdvisory(t, mk(t)) })
		t.Run("PrefetchSeesNewestBytes", func(t *testing.T) { checkPrefetchSeesNewestBytes(t, mk(t)) })
		t.Run("PrefetchedAccessWaitsForArrival", func(t *testing.T) { checkPrefetchedAccessWaits(t, mk(t)) })
		t.Run("FenceSettles", func(t *testing.T) { checkFenceSettles(t, mk(t)) })
		t.Run("TailUnit", func(t *testing.T) { checkTailUnit(t, mk(t)) })
		t.Run("StatsCount", func(t *testing.T) { checkStatsCount(t, mk(t)) })
		t.Run("Determinism", func(t *testing.T) { checkDeterminism(t, mk) })
	})
}

// checkReadYourWrites writes at the object's head, across a unit boundary
// and at its tail; each write reads back verbatim.
func checkReadYourWrites(t *testing.T, p *planeRig) {
	clk := sim.NewClock(0)
	for _, want := range []int64{0, p.unit/2 + 1, p.length - p.unit/3 - 1} {
		off, buf := p.span(want, p.unit*2+p.unit/2)
		fillPattern(off, buf)
		mustNot(t, "write", p.access(clk, off, buf, true))
		got := make([]byte, len(buf))
		mustNot(t, "read", p.access(clk, off, got, false))
		if !bytes.Equal(got, buf) {
			t.Fatalf("read-your-writes mismatch at offset %d", off)
		}
	}
}

// checkFlushPersists: FlushAll leaves nothing resident and the dirty bytes
// in far memory.
func checkFlushPersists(t *testing.T, p *planeRig) {
	clk := sim.NewClock(0)
	off, buf := p.span(p.unit/2, p.unit*3)
	fillPattern(off, buf)
	mustNot(t, "write", p.access(clk, off, buf, true))
	mustNot(t, "flush", p.r.FlushAll(clk))
	if n, _ := p.resident(); n != 0 {
		t.Fatalf("FlushAll left %d units resident", n)
	}
	far := make([]byte, len(buf))
	mustNot(t, "far read", p.farRead(off, far))
	if !bytes.Equal(far, buf) {
		t.Fatal("FlushAll did not persist dirty bytes to far memory")
	}
}

// checkFlushObjectPersists: FlushObject puts the object's dirty bytes in far
// memory, a second one with nothing resident is free, and a refetch still
// sees the bytes.
func checkFlushObjectPersists(t *testing.T, p *planeRig) {
	clk := sim.NewClock(0)
	off, buf := p.span(0, p.unit*2)
	fillPattern(off, buf)
	mustNot(t, "write", p.access(clk, off, buf, true))
	mustNot(t, "flush", p.flush(clk))
	far := make([]byte, len(buf))
	mustNot(t, "far read", p.farRead(off, far))
	if !bytes.Equal(far, buf) {
		t.Fatal("FlushObject did not write the dirty range back to far memory")
	}
	before := clk.Now()
	mustNot(t, "second flush", p.flush(clk))
	if clk.Now() != before {
		t.Fatalf("a flush with nothing resident moved the clock %v -> %v", before, clk.Now())
	}
	got := make([]byte, len(buf))
	mustNot(t, "re-read", p.access(clk, off, got, false))
	if !bytes.Equal(got, buf) {
		t.Fatal("refetch after FlushObject lost data")
	}
}

// checkPrefetchAdvisory: in-range, duplicate and far out-of-range entries
// are all advisory, and prefetched units carry the far image.
func checkPrefetchAdvisory(t *testing.T, p *planeRig) {
	clk := sim.NewClock(0)
	off, buf := p.span(0, p.unit*2)
	fillPattern(off, buf)
	mustNot(t, "seed write", p.access(clk, off, buf, true))
	mustNot(t, "seed flush", p.flush(clk))
	mustNot(t, "prefetch", p.prefetch(clk, off, off+p.unit, off, p.length+10*p.unit))
	p.r.Fence(clk)
	got := make([]byte, len(buf))
	mustNot(t, "read", p.access(clk, off, got, false))
	if !bytes.Equal(got, buf) {
		t.Fatal("prefetched bytes differ from far image")
	}
	if c := p.counts(); c.issued == 0 {
		t.Fatalf("prefetch batch issued nothing: %+v", c)
	}
}

// checkPrefetchSeesNewestBytes: a unit written, flushed and re-requested
// through PrefetchBatch then Access returns the newest bytes — twice over,
// so the second round's prefetch races the first round's write-back.
func checkPrefetchSeesNewestBytes(t *testing.T, p *planeRig) {
	clk := sim.NewClock(0)
	off, want := p.span(p.unit/2, p.unit*2)
	for round := byte(0); round < 2; round++ {
		for i := range want {
			want[i] = pattern(off+int64(i)) ^ round
		}
		mustNot(t, "write", p.access(clk, off, want, true))
		mustNot(t, "flush", p.flush(clk))
		mustNot(t, "prefetch", p.prefetch(clk, off, off+int64(len(want))-1))
		got := make([]byte, len(want))
		mustNot(t, "read", p.access(clk, off, got, false))
		if !bytes.Equal(got, want) {
			t.Fatalf("round %d: prefetch after flush served stale bytes", round)
		}
	}
}

// checkPrefetchedAccessWaits: PrefetchBatch then Access never completes
// before the unit's bytes land, by the link's own account.
func checkPrefetchedAccessWaits(t *testing.T, p *planeRig) {
	clk := sim.NewClock(0)
	off, buf := p.span(0, p.unit)
	fillPattern(off, buf)
	mustNot(t, "seed write", p.access(clk, off, buf, true))
	mustNot(t, "seed flush", p.flush(clk))
	p.link.last = 0
	mustNot(t, "prefetch", p.prefetch(clk, off))
	if c := p.counts(); c.issued == 0 {
		t.Fatalf("prefetch of a flushed unit issued nothing: %+v", c)
	}
	arrived := p.link.last
	if arrived <= clk.Now() {
		t.Fatalf("the prefetch's bytes landed at %v, not after it was posted at %v: nothing was in flight", arrived, clk.Now())
	}
	got := make([]byte, len(buf))
	mustNot(t, "read", p.access(clk, off, got, false))
	if !bytes.Equal(got, buf) {
		t.Fatal("prefetched bytes differ from the flushed image")
	}
	if clk.Now() < arrived {
		t.Fatalf("access of a prefetched unit completed at %v, before its bytes arrived at %v", clk.Now(), arrived)
	}
}

// checkFenceSettles: a second Fence right after one does not move the clock.
func checkFenceSettles(t *testing.T, p *planeRig) {
	clk := sim.NewClock(0)
	off, buf := p.span(0, p.unit)
	fillPattern(off, buf)
	mustNot(t, "write", p.access(clk, off, buf, true))
	mustNot(t, "prefetch", p.prefetch(clk, p.unit))
	p.r.Fence(clk)
	settled := clk.Now()
	p.r.Fence(clk)
	if clk.Now() != settled {
		t.Fatalf("second fence moved the clock: %v -> %v", settled, clk.Now())
	}
}

// checkTailUnit: a write to the object's partial last unit persists.
func checkTailUnit(t *testing.T, p *planeRig) {
	tail := p.length % p.unit
	if tail == 0 {
		t.Fatalf("object length %d is a multiple of the unit %d: the tail is not exercised", p.length, p.unit)
	}
	clk := sim.NewClock(0)
	off, buf := p.span(p.length-tail, tail)
	fillPattern(off, buf)
	mustNot(t, "tail write", p.access(clk, off, buf, true))
	mustNot(t, "flush", p.r.FlushAll(clk))
	far := make([]byte, len(buf))
	mustNot(t, "far read", p.farRead(off, far))
	if !bytes.Equal(far, buf) {
		t.Fatal("tail unit did not persist")
	}
}

// checkStatsCount: a cold read misses, a warm re-read hits, both count as
// accesses, and what is resident fits the capacity.
func checkStatsCount(t *testing.T, p *planeRig) {
	clk := sim.NewClock(0)
	off, buf := p.span(0, p.unit*2)
	before := p.counts()
	mustNot(t, "cold read", p.access(clk, off, buf, false))
	mid := p.counts()
	if mid.misses <= before.misses || mid.accesses <= before.accesses {
		t.Fatalf("cold read did not miss or was not counted: %+v -> %+v", before, mid)
	}
	mustNot(t, "warm read", p.access(clk, off, buf, false))
	after := p.counts()
	if after.misses != mid.misses {
		t.Fatalf("warm re-read missed: %+v -> %+v", mid, after)
	}
	if after.accesses <= mid.accesses || after.hits < mid.hits {
		t.Fatalf("warm re-read not counted as a hitting access: %+v -> %+v", mid, after)
	}
	if n, capacity := p.resident(); n <= 0 || n > capacity {
		t.Fatalf("resident %d outside (0, capacity %d]", n, capacity)
	}
}

// checkDeterminism runs one mixed script on two fresh rigs and requires the
// same elapsed time, counters and far image — what byte-identical replays
// rely on.
func checkDeterminism(t *testing.T, mk func(*testing.T) *planeRig) {
	run := func(p *planeRig) (sim.Time, planeCounts, []byte) {
		clk := sim.NewClock(0)
		for i := int64(0); i < 4; i++ {
			off, buf := p.span(i*p.unit/2, p.unit)
			fillPattern(off, buf)
			mustNot(t, "write", p.access(clk, off, buf, true))
		}
		mustNot(t, "prefetch", p.prefetch(clk, 0, p.unit))
		p.r.Fence(clk)
		off, got := p.span(0, p.unit*2)
		mustNot(t, "read", p.access(clk, off, got, false))
		mustNot(t, "flush", p.r.FlushAll(clk))
		far := make([]byte, len(got))
		mustNot(t, "far read", p.farRead(off, far))
		return clk.Now(), p.counts(), far
	}
	t1, c1, b1 := run(mk(t))
	t2, c2, b2 := run(mk(t))
	if t1 != t2 {
		t.Fatalf("elapsed time diverged across identical runs: %v vs %v", t1, t2)
	}
	if c1 != c2 {
		t.Fatalf("counters diverged across identical runs:\n%+v\n%+v", c1, c2)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("far image diverged across identical runs")
	}
}

// TestSetSectionScaleRecapsPrefetchWindow is the regression test for the
// stale prefetch-window clamp: after an elastic shrink the programmed
// policy's in-flight window must re-clamp to half the live capacity, and a
// regrow must restore the configured window.
func TestSetSectionScaleRecapsPrefetchWindow(t *testing.T) {
	r, clk := mkRuntime(t, nil) // items section: 16 KiB / 128 B = 128 lines
	pol := prefetch.NewProgrammed([]int64{0, 1, 2, 3}, 60)
	if err := r.InstallSectionPolicy(0, pol); err != nil {
		t.Fatal(err)
	}
	if pol.Window() != 60 {
		t.Fatalf("window = %d before resize, want 60", pol.Window())
	}
	// Shrink to 32 lines: a 60-line window would thrash the cache; the
	// resize must re-clamp it to half the live capacity.
	if err := r.SetSectionScale(clk, 0.25); err != nil {
		t.Fatal(err)
	}
	if pol.Window() != 16 {
		t.Fatalf("window = %d after shrink to 32 lines, want 16", pol.Window())
	}
	// Regrow: the configured window fits again and must come back whole.
	if err := r.SetSectionScale(clk, 1.0); err != nil {
		t.Fatal(err)
	}
	if pol.Window() != 60 {
		t.Fatalf("window = %d after regrow, want 60", pol.Window())
	}
}
