// Package planetest is the shared conformance suite for plane.DataPlane
// implementations, mirroring transporttest: implementers construct a Harness
// around their plane and Run drives one behavioral script through it —
// read-your-writes, flush/evict persistence to far memory, advisory
// prefetch and its ordering against write-back and arrival, fences,
// tail-unit handling for unaligned regions, and replay determinism. Both the paged plane and the line plane must pass unchanged.
package planetest

import (
	"bytes"
	"testing"

	"mira/internal/plane"
	"mira/internal/sim"
)

// Harness wraps one DataPlane instance over one far region for the suite.
type Harness struct {
	// P is the plane under test.
	P plane.DataPlane
	// Base and Length delimit the far region the plane serves; every
	// suite access stays inside [Base, Base+Length).
	Base   uint64
	Length int64
	// FarRead reads raw far memory behind the plane (bypassing the
	// cache), so the suite can check that flushes actually persisted.
	FarRead func(addr uint64, buf []byte) error
}

// Factory builds a fresh harness; the suite calls it once per subtest so
// state never leaks between behaviors.
type Factory func(t *testing.T) *Harness

// pattern is the deterministic byte the suite expects at a far address.
func pattern(addr uint64) byte { return byte(addr*131 + 17) }

func fill(base uint64, buf []byte) {
	for i := range buf {
		buf[i] = pattern(base + uint64(i))
	}
}

// Run drives the full conformance suite against the factory's planes.
func Run(t *testing.T, name string, mk Factory) {
	t.Run(name, func(t *testing.T) {
		t.Run("ReadYourWrites", func(t *testing.T) { testReadYourWrites(t, mk(t)) })
		t.Run("FlushPersists", func(t *testing.T) { testFlushPersists(t, mk(t)) })
		t.Run("EvictRangePersists", func(t *testing.T) { testEvictRange(t, mk(t)) })
		t.Run("PrefetchAdvisory", func(t *testing.T) { testPrefetchAdvisory(t, mk(t)) })
		t.Run("PrefetchSeesNewestBytes", func(t *testing.T) { testPrefetchSeesNewestBytes(t, mk(t)) })
		t.Run("PrefetchedAccessWaitsForArrival", func(t *testing.T) { testPrefetchedAccessWaits(t, mk) })
		t.Run("FenceSettles", func(t *testing.T) { testFenceSettles(t, mk(t)) })
		t.Run("TailUnit", func(t *testing.T) { testTailUnit(t, mk(t)) })
		t.Run("StatsCount", func(t *testing.T) { testStatsCount(t, mk(t)) })
		t.Run("Determinism", func(t *testing.T) { testDeterminism(t, mk) })
	})
}

// span returns an access window of up to want bytes starting at off,
// clipped to the harness region.
func (h *Harness) span(off int64, want int64) (uint64, []byte) {
	if off >= h.Length {
		off = h.Length - 1
	}
	if off < 0 {
		off = 0
	}
	n := want
	if off+n > h.Length {
		n = h.Length - off
	}
	return h.Base + uint64(off), make([]byte, n)
}

func testReadYourWrites(t *testing.T, h *Harness) {
	clk := sim.NewClock(0)
	unit := int64(h.P.UnitBytes())
	// Writes at the region head, spanning a unit boundary, and at the
	// region tail; each must read back through the plane verbatim.
	offs := []int64{0, unit/2 + 1, h.Length - unit/3 - 1}
	for _, off := range offs {
		addr, buf := h.span(off, unit*2+unit/2)
		fill(addr, buf)
		if err := h.P.Access(clk, addr, buf, true); err != nil {
			t.Fatalf("write at %#x: %v", addr, err)
		}
		got := make([]byte, len(buf))
		if err := h.P.Access(clk, addr, got, false); err != nil {
			t.Fatalf("read at %#x: %v", addr, err)
		}
		if !bytes.Equal(got, buf) {
			t.Fatalf("read-your-writes mismatch at offset %d", off)
		}
	}
}

func testFlushPersists(t *testing.T, h *Harness) {
	clk := sim.NewClock(0)
	addr, buf := h.span(int64(h.P.UnitBytes())/2, int64(h.P.UnitBytes())*3)
	fill(addr, buf)
	if err := h.P.Access(clk, addr, buf, true); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := h.P.Flush(clk); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if got := h.P.ResidentUnits(); got != 0 {
		t.Fatalf("flush left %d units resident", got)
	}
	far := make([]byte, len(buf))
	if err := h.FarRead(addr, far); err != nil {
		t.Fatalf("far read: %v", err)
	}
	if !bytes.Equal(far, buf) {
		t.Fatalf("flush did not persist dirty bytes to far memory")
	}
}

func testEvictRange(t *testing.T, h *Harness) {
	clk := sim.NewClock(0)
	unit := int64(h.P.UnitBytes())
	addr, buf := h.span(0, unit*2)
	fill(addr, buf)
	if err := h.P.Access(clk, addr, buf, true); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := h.P.Evict(clk, addr, int64(len(buf))); err != nil {
		t.Fatalf("evict: %v", err)
	}
	far := make([]byte, len(buf))
	if err := h.FarRead(addr, far); err != nil {
		t.Fatalf("far read: %v", err)
	}
	if !bytes.Equal(far, buf) {
		t.Fatalf("evict did not write dirty range back to far memory")
	}
	// A refetch through the plane still sees the bytes.
	got := make([]byte, len(buf))
	if err := h.P.Access(clk, addr, got, false); err != nil {
		t.Fatalf("re-read: %v", err)
	}
	if !bytes.Equal(got, buf) {
		t.Fatalf("refetch after evict lost data")
	}
	// Evicting a range with nothing resident is a no-op, not an error.
	if err := h.P.Evict(clk, addr, 0); err != nil {
		t.Fatalf("zero-length evict: %v", err)
	}
}

func testPrefetchAdvisory(t *testing.T, h *Harness) {
	clk := sim.NewClock(0)
	unit := int64(h.P.UnitBytes())
	// Seed far memory through the plane so prefetched units carry known bytes.
	addr, buf := h.span(0, unit*2)
	fill(addr, buf)
	if err := h.P.Access(clk, addr, buf, true); err != nil {
		t.Fatalf("seed write: %v", err)
	}
	if err := h.P.Flush(clk); err != nil {
		t.Fatalf("seed flush: %v", err)
	}
	// In-range, duplicate, and wildly out-of-range proposals: all advisory.
	props := []uint64{addr, addr + uint64(unit), addr, h.Base + uint64(h.Length) + uint64(unit)*10}
	if err := h.P.PrefetchBatch(clk, props); err != nil {
		t.Fatalf("prefetch batch: %v", err)
	}
	h.P.Fence(clk)
	got := make([]byte, len(buf))
	if err := h.P.Access(clk, addr, got, false); err != nil {
		t.Fatalf("read after prefetch: %v", err)
	}
	if !bytes.Equal(got, buf) {
		t.Fatalf("prefetched bytes differ from far image")
	}
	if st := h.P.Stats(); st.PrefetchIssued == 0 {
		t.Fatalf("prefetch batch issued nothing: %+v", st)
	}
}

// testPrefetchSeesNewestBytes: a unit written, evicted and re-requested
// through PrefetchBatch then Access returns the newest bytes — twice over,
// so the second round's prefetch races the first round's write-back.
func testPrefetchSeesNewestBytes(t *testing.T, h *Harness) {
	clk := sim.NewClock(0)
	unit := int64(h.P.UnitBytes())
	addr, want := h.span(unit/2, unit*2)
	for round := byte(0); round < 2; round++ {
		for i := range want {
			want[i] = pattern(addr+uint64(i)) ^ round
		}
		if err := h.P.Access(clk, addr, want, true); err != nil {
			t.Fatalf("round %d write: %v", round, err)
		}
		if err := h.P.Evict(clk, addr, int64(len(want))); err != nil {
			t.Fatalf("round %d evict: %v", round, err)
		}
		if err := h.P.PrefetchBatch(clk, []uint64{addr, addr + uint64(len(want)) - 1}); err != nil {
			t.Fatalf("round %d prefetch: %v", round, err)
		}
		got := make([]byte, len(want))
		if err := h.P.Access(clk, addr, got, false); err != nil {
			t.Fatalf("round %d read: %v", round, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("round %d: prefetch after evict served stale bytes", round)
		}
	}
}

// testPrefetchedAccessWaits: PrefetchBatch then Access never completes
// before the unit's bytes could have arrived. The arrival instant comes from
// a twin harness that runs the same script and fences where this one
// accesses: a fence blocks exactly until the prefetched bytes have landed.
func testPrefetchedAccessWaits(t *testing.T, mk Factory) {
	run := func(h *Harness, access bool) sim.Time {
		clk := sim.NewClock(0)
		addr, buf := h.span(0, int64(h.P.UnitBytes()))
		fill(addr, buf)
		if err := h.P.Access(clk, addr, buf, true); err != nil {
			t.Fatalf("seed write: %v", err)
		}
		if err := h.P.Flush(clk); err != nil {
			t.Fatalf("seed flush: %v", err)
		}
		if err := h.P.PrefetchBatch(clk, []uint64{addr}); err != nil {
			t.Fatalf("prefetch: %v", err)
		}
		if st := h.P.Stats(); st.PrefetchIssued == 0 {
			t.Fatalf("prefetch of a flushed unit issued nothing: %+v", st)
		}
		posted := clk.Now()
		if !access {
			h.P.Fence(clk)
			if clk.Now() == posted {
				t.Fatalf("fence right after a prefetch did not wait: nothing was in flight")
			}
			return clk.Now()
		}
		got := make([]byte, len(buf))
		if err := h.P.Access(clk, addr, got, false); err != nil {
			t.Fatalf("read: %v", err)
		}
		if !bytes.Equal(got, buf) {
			t.Fatalf("prefetched bytes differ from the flushed image")
		}
		return clk.Now()
	}
	arrived := run(mk(t), false)
	if accessed := run(mk(t), true); accessed < arrived {
		t.Fatalf("access of a prefetched unit completed at %v, before its bytes arrived at %v", accessed, arrived)
	}
}

func testFenceSettles(t *testing.T, h *Harness) {
	clk := sim.NewClock(0)
	addr, buf := h.span(0, int64(h.P.UnitBytes()))
	fill(addr, buf)
	if err := h.P.Access(clk, addr, buf, true); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := h.P.PrefetchBatch(clk, []uint64{h.Base + uint64(h.P.UnitBytes())}); err != nil {
		t.Fatalf("prefetch: %v", err)
	}
	h.P.Fence(clk)
	settled := clk.Now()
	h.P.Fence(clk)
	if clk.Now() != settled {
		t.Fatalf("second fence moved the clock: %v -> %v", settled, clk.Now())
	}
}

func testTailUnit(t *testing.T, h *Harness) {
	if h.Length%int64(h.P.UnitBytes()) == 0 {
		t.Skip("region length is unit-aligned; tail behavior not exercised")
	}
	clk := sim.NewClock(0)
	tail := h.Length % int64(h.P.UnitBytes())
	addr, buf := h.span(h.Length-tail, tail)
	fill(addr, buf)
	if err := h.P.Access(clk, addr, buf, true); err != nil {
		t.Fatalf("tail write: %v", err)
	}
	if err := h.P.Flush(clk); err != nil {
		t.Fatalf("flush: %v", err)
	}
	far := make([]byte, len(buf))
	if err := h.FarRead(addr, far); err != nil {
		t.Fatalf("far read: %v", err)
	}
	if !bytes.Equal(far, buf) {
		t.Fatalf("tail unit did not persist")
	}
}

func testStatsCount(t *testing.T, h *Harness) {
	clk := sim.NewClock(0)
	unit := int64(h.P.UnitBytes())
	addr, buf := h.span(0, unit*2)
	before := h.P.Stats()
	if err := h.P.Access(clk, addr, buf, false); err != nil {
		t.Fatalf("cold read: %v", err)
	}
	mid := h.P.Stats()
	if mid.Misses <= before.Misses {
		t.Fatalf("cold read did not miss: %+v", mid)
	}
	if mid.Accesses <= before.Accesses {
		t.Fatalf("cold read not counted as access: %+v", mid)
	}
	if err := h.P.Access(clk, addr, buf, false); err != nil {
		t.Fatalf("warm read: %v", err)
	}
	after := h.P.Stats()
	if after.Misses != mid.Misses {
		t.Fatalf("warm re-read missed: %+v -> %+v", mid, after)
	}
	if after.Accesses <= mid.Accesses {
		t.Fatalf("warm re-read not counted as access: %+v", after)
	}
	if after.Hits < mid.Hits {
		t.Fatalf("hit counter went backwards: %+v -> %+v", mid, after)
	}
	if h.P.ResidentUnits() <= 0 || h.P.ResidentUnits() > h.P.CapacityUnits() {
		t.Fatalf("resident %d outside (0, capacity %d]", h.P.ResidentUnits(), h.P.CapacityUnits())
	}
}

// testDeterminism runs one mixed script against two fresh harnesses and
// requires identical elapsed simulated time, identical stats, and identical
// read-back bytes — the property byte-identical replays rely on.
func testDeterminism(t *testing.T, mk Factory) {
	run := func(h *Harness) (sim.Time, plane.Stats, []byte) {
		clk := sim.NewClock(0)
		unit := int64(h.P.UnitBytes())
		for i := int64(0); i < 4; i++ {
			addr, buf := h.span(i*unit/2, unit)
			fill(addr, buf)
			if err := h.P.Access(clk, addr, buf, true); err != nil {
				t.Fatalf("write %d: %v", i, err)
			}
		}
		if err := h.P.PrefetchBatch(clk, []uint64{h.Base, h.Base + uint64(unit)}); err != nil {
			t.Fatalf("prefetch: %v", err)
		}
		h.P.Fence(clk)
		addr, got := h.span(0, unit*2)
		if err := h.P.Access(clk, addr, got, false); err != nil {
			t.Fatalf("read: %v", err)
		}
		if err := h.P.Flush(clk); err != nil {
			t.Fatalf("flush: %v", err)
		}
		far := make([]byte, len(got))
		if err := h.FarRead(addr, far); err != nil {
			t.Fatalf("far read: %v", err)
		}
		return clk.Now(), h.P.Stats(), far
	}
	t1, s1, b1 := run(mk(t))
	t2, s2, b2 := run(mk(t))
	if t1 != t2 {
		t.Fatalf("elapsed time diverged across identical runs: %v vs %v", t1, t2)
	}
	if s1 != s2 {
		t.Fatalf("stats diverged across identical runs:\n%+v\n%+v", s1, s2)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("far image diverged across identical runs")
	}
}
