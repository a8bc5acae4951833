package rt

import (
	"fmt"
	"math/rand"
	"testing"

	"mira/internal/cache"
	"mira/internal/ir"
	"mira/internal/prefetch"
	"mira/internal/sim"
	"mira/internal/transport"
)

// readyOf is the landing instant marked on tag's line: zero when the line is
// not resident or nothing of it is on the wire.
func readyOf(s *sectionRT, tag uint64) sim.Time {
	if l, ok := s.sec.Peek(tag); ok {
		return l.Ready
	}
	return 0
}

// speculative counts the resident lines of s a prefetch brought in that no
// demand access has touched yet.
func speculative(s *sectionRT) int64 {
	var n int64
	s.sec.ForEachResident(func(l *cache.Line) {
		if l.Spec {
			n++
		}
	})
	return n
}

// landingLink forwards every call to the link under it and writes down, for
// each line tag, when the bytes of the last one-sided read into it land — the
// truth a line's Ready mark must agree with. A gather's tags are forgotten
// (land computes their per-piece instants). When failIn is positive, the
// failIn-th one-sided read from then on fails.
type landingLink struct {
	transport.Link
	landing map[uint64]sim.Time
	failIn  int
}

func (l *landingLink) ReadOneSided(now sim.Time, addr uint64, buf []byte) (sim.Time, error) {
	if l.failIn > 0 {
		if l.failIn--; l.failIn == 0 {
			return now, errInjected
		}
	}
	done, err := l.Link.ReadOneSided(now, addr, buf)
	if err == nil {
		l.landing[addr] = done
	}
	return done, err
}

func (l *landingLink) GatherOneSided(now sim.Time, addrs []uint64, sizes []int) ([]byte, sim.Time, error) {
	for _, a := range addrs {
		delete(l.landing, a)
	}
	return l.Link.GatherOneSided(now, addrs, sizes)
}

// TestLineMarksBalance drives a seeded stream of every operation that moves
// a line or its marks — demand reads and writes (native and not), both
// prefetch entry points, eviction hints, release, bulk reads and writes (one
// kind made to fail halfway), flushes, fences and resizes — through every
// section structure, with the write-back queue and compression on and off,
// under a section policy or none. After every operation:
//
//   - prefetches balance: Issued == Useful + Useless + the resident lines
//     still marked speculative;
//   - a line the operation demand-accessed is not left in flight unless it is
//     speculative again (a policy prefetched it anew);
//   - a resident line whose bytes the link has not yet delivered carries
//     their landing instant as its Ready mark;
//
// and a Fence ends at max(lastFlush, the largest Ready of any resident line).
func TestLineMarksBalance(t *testing.T) {
	var spec, late, failed, inFlight int // coverage over all cells
	seed := int64(0)
	for _, st := range []cache.Structure{cache.Direct, cache.SetAssoc, cache.FullAssoc} {
		for _, wbq := range []int{-1, 4} {
			for _, compress := range []bool{false, true} {
				for _, policy := range []prefetch.Policy{nil, prefetch.Readahead{N: 2}} {
					name := fmt.Sprintf("%v/wbq=%d/compress=%v/policy=%v", st, wbq, compress, policy != nil)
					seed++
					t.Run(name, func(t *testing.T) {
						c := marksCell{t: t, rng: rand.New(rand.NewSource(seed))}
						c.r, c.clk = mkRuntime(t, func(cfg *Config) {
							cfg.Sections[0].Cache = cache.Config{Name: "items", Structure: st, Ways: 2, LineBytes: 128, SizeBytes: 1 << 10}
							cfg.Sections[0].Compress = compress
							cfg.WritebackQueueLines = wbq
						})
						data := make([]byte, 128*64)
						for i := range data {
							data[i] = byte(i%251) + 1
						}
						mustNot(t, "init", c.r.InitObject("items", data))
						mustNot(t, "policy", c.r.InstallSectionPolicy(0, policy))
						c.link = &landingLink{Link: c.r.tr, landing: map[uint64]sim.Time{}}
						c.r.tr = c.link
						c.s = c.r.secs[0]
						for i := 0; i < 400; i++ {
							c.step(i)
						}
						pf := c.s.pf
						spec, late, failed, inFlight = spec+int(pf.Useless), late+int(pf.Late), failed+c.failed, inFlight+c.inFlight
					})
				}
			}
		}
	}
	if spec == 0 || late == 0 || failed == 0 || inFlight == 0 {
		t.Fatalf("the streams evicted %d untouched prefetches, touched %d late ones, failed %d bulk reads and checked %d lines in flight: each must happen",
			spec, late, failed, inFlight)
	}
}

// marksCell is one cell's runtime and the stream's state.
type marksCell struct {
	t        *testing.T
	r        *Runtime
	clk      *sim.Clock
	s        *sectionRT
	link     *landingLink
	rng      *rand.Rand
	failed   int // bulk reads the injected failure cut short
	inFlight int // lines found in flight with their landing known
}

func (c *marksCell) elem() int64 { return c.rng.Int63n(128) }

// step runs one random operation and checks the marks after it.
func (c *marksCell) step(i int) {
	t, r, clk := c.t, c.r, c.clk
	var err error
	what := ""
	var lo, hi int64 = -1, -1 // the elements a successful op demand-accessed
	switch op := c.rng.Intn(16); {
	case op < 5:
		e, write := c.elem(), c.rng.Intn(2) == 0
		f := []ir.Field{fld(0, 8), fld(8, 8), fld(0, 64)}[c.rng.Intn(3)]
		buf := make([]byte, f.Bytes)
		c.rng.Read(buf)
		what = fmt.Sprintf("Access(%d, write=%v)", e, write)
		err = r.Access(clk, "items", e, f, buf, write, AccessOpts{Native: c.rng.Intn(2) == 0})
		lo, hi = e, e+1
	case op < 7:
		e := c.rng.Int63n(132) - 2
		what = fmt.Sprintf("Prefetch(%d)", e)
		err = r.Prefetch(clk, "items", e, fld(0, 8))
	case op == 7:
		var es []BatchEntry
		for n := 1 + c.rng.Intn(4); n > 0; n-- {
			es = append(es, BatchEntry{Obj: "items", Elem: c.elem(), Field: fld(0, 8)})
		}
		what = fmt.Sprintf("PrefetchBatch(%v)", es)
		err = r.PrefetchBatch(clk, es)
	case op == 8:
		e := c.elem()
		what = fmt.Sprintf("EvictHint(%d)", e)
		err = r.EvictHint(clk, "items", e)
	case op == 9:
		what = "Release"
		err = r.Release(clk, "items")
	case op < 12 || op == 15:
		e := c.elem()
		n := 1 + c.rng.Int63n(min(20, 128-e))
		buf := make([]byte, n*64)
		write := op == 11
		if write {
			c.rng.Read(buf)
			err = r.BulkWrite(clk, "items", e, buf)
		} else {
			if op == 15 {
				c.link.failIn = 2 // the second far read of this bulk fails
			}
			err = r.BulkRead(clk, "items", e, buf)
		}
		what = fmt.Sprintf("Bulk(%d, +%d, write=%v, fail=%v)", e, n, write, op == 15)
		if op == 15 && c.link.failIn == 0 {
			if err == nil {
				t.Fatalf("op %d %s: the injected failure did not surface", i, what)
			}
			c.failed++
			err = nil
		} else {
			lo, hi = e, e+n
		}
		c.link.failIn = 0
	case op == 12:
		what = "FlushObject"
		err = r.FlushObject(clk, "items")
	case op == 13:
		what = "Fence"
		c.fence(i)
	case op == 14:
		scale := []float64{0.5, 1}[c.rng.Intn(2)]
		what = fmt.Sprintf("SetSectionScale(%g)", scale)
		err = r.SetSectionScale(clk, scale)
	}
	if err != nil {
		t.Fatalf("op %d %s: %v", i, what, err)
	}
	c.check(i, what, lo, hi)
}

// fence runs a Fence and checks where it ends.
func (c *marksCell) fence(i int) {
	latest := c.clk.Now()
	c.s.sec.ForEachResident(func(l *cache.Line) { latest = max(latest, l.Ready) })
	c.r.Fence(c.clk)
	// A drain inside the fence posts before lastFlush: the fence must end at
	// the later of the drain's completion and the last landing.
	if want := max(latest, c.r.lastFlush); c.clk.Now() != want {
		c.t.Fatalf("op %d Fence ended at %v, want max(lastFlush, latest Ready) = %v", i, c.clk.Now(), want)
	}
}

// check asserts the marks invariants after op i, which demand-accessed the
// elements [lo, hi) (none when lo < 0).
func (c *marksCell) check(i int, what string, lo, hi int64) {
	t, s := c.t, c.s
	if pf, spec := s.pf, speculative(s); pf.Issued != pf.Useful+pf.Useless+spec {
		t.Fatalf("op %d %s: issued %d != useful %d + useless %d + %d resident speculative lines",
			i, what, pf.Issued, pf.Useful, pf.Useless, spec)
	}
	if lo >= 0 {
		o := c.r.objs["items"]
		lb := uint64(s.spec.Cache.LineBytes)
		first := cache.AlignDown(o.farBase+uint64(lo)*64, int(lb))
		for tag := first; tag < o.farBase+uint64(hi)*64; tag += lb {
			if l, ok := s.sec.Peek(tag); ok && l.Ready != 0 && !l.Spec {
				t.Fatalf("op %d %s: line %#x left in flight (Ready %v) after a demand access", i, what, tag, l.Ready)
			}
		}
	}
	now := c.clk.Now()
	for tag, landing := range c.link.landing {
		l, resident := s.sec.Peek(tag)
		if landing <= now || !resident {
			delete(c.link.landing, tag)
			continue
		}
		c.inFlight++
		if l.Ready != landing {
			t.Fatalf("op %d %s: line %#x lands at %v but is marked Ready %v (now %v)", i, what, tag, landing, l.Ready, now)
		}
	}
}
