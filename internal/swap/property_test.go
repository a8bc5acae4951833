package swap

import (
	"bytes"
	"container/list"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"mira/internal/cache"
	"mira/internal/farmem"
	"mira/internal/netmodel"
	"mira/internal/prefetch"
	"mira/internal/sim"
	"mira/internal/transport"
	"mira/internal/transport/transporttest"
)

// Property: for any sequence of writes followed by reads at the same
// offsets, the cache returns exactly what was written, regardless of how
// eviction and prefetching shuffle pages in between. This is the paging
// substrate's fundamental correctness invariant.
func TestPropertyReadBackAfterEviction(t *testing.T) {
	const regionPages = 16
	f := func(seed uint64, poolRaw uint8) bool {
		pool := int(poolRaw%6) + 2 // 2..7 pages: far smaller than the region
		c, clk := newCache(t, pool, regionPages*PageBytes, seqPrefetch{n: 2})
		rng := sim.NewRNG(seed)
		type rec struct {
			off uint64
			val uint64
		}
		var written []rec
		for i := 0; i < 64; i++ {
			off := uint64(rng.Int63()) % uint64(regionPages*PageBytes-8)
			val := rng.Uint64()
			var buf [8]byte
			binary.LittleEndian.PutUint64(buf[:], val)
			if err := c.Write(clk, c.Base()+off, buf[:]); err != nil {
				return false
			}
			written = append(written, rec{off, val})
		}
		// Later writes may overlap earlier ones; replay forward keeping
		// the final value per byte.
		img := make(map[uint64]byte)
		for _, w := range written {
			var buf [8]byte
			binary.LittleEndian.PutUint64(buf[:], w.val)
			for i, b := range buf {
				img[w.off+uint64(i)] = b
			}
		}
		for _, w := range written {
			got := make([]byte, 8)
			if err := c.Read(clk, c.Base()+w.off, got); err != nil {
				return false
			}
			for i := range got {
				if got[i] != img[w.off+uint64(i)] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: the cache is deterministic — replaying an identical access
// sequence against a fresh cache yields identical fault counts and
// identical virtual time.
func TestPropertyDeterministicReplay(t *testing.T) {
	const regionPages = 12
	run := func(seed uint64, pool int) (Stats, sim.Time, []byte) {
		c, clk := newCache(t, pool, regionPages*PageBytes, seqPrefetch{n: 2})
		rng := sim.NewRNG(seed)
		sum := make([]byte, 32)
		for i := 0; i < 96; i++ {
			off := uint64(rng.Int63()) % uint64(regionPages*PageBytes-32)
			if rng.Intn(3) == 0 {
				if err := c.Write(clk, c.Base()+off, sum); err != nil {
					return Stats{}, 0, nil
				}
				continue
			}
			buf := make([]byte, 32)
			if err := c.Read(clk, c.Base()+off, buf); err != nil {
				return Stats{}, 0, nil
			}
			for j := range sum {
				sum[j] ^= buf[j]
			}
		}
		return c.Stats(), clk.Now(), sum
	}
	f := func(seed uint64, poolRaw uint8) bool {
		pool := int(poolRaw%5) + 2
		s1, t1, d1 := run(seed, pool)
		s2, t2, d2 := run(seed, pool)
		return s1 == s2 && t1 == t2 && bytes.Equal(d1, d2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: residency never exceeds the pool capacity, whatever the mix of
// demand faults and prefetches.
func TestPropertyResidencyBounded(t *testing.T) {
	const regionPages = 24
	f := func(seed uint64, poolRaw, depth uint8) bool {
		pool := int(poolRaw%6) + 2
		c, clk := newCache(t, pool, regionPages*PageBytes, seqPrefetch{n: int64(depth % 7)})
		rng := sim.NewRNG(seed)
		buf := make([]byte, 8)
		for i := 0; i < 128; i++ {
			off := uint64(rng.Int63()) % uint64(regionPages*PageBytes-8)
			if err := c.Read(clk, c.Base()+off, buf); err != nil {
				return false
			}
			if c.Resident() > c.Capacity() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestFaultsInRangeAttribution(t *testing.T) {
	c, clk := newCache(t, 4, 8*PageBytes, nil)
	buf := make([]byte, 8)
	// Touch pages 0, 1, and 5.
	for _, pg := range []uint64{0, 1, 5} {
		if err := c.Read(clk, c.Base()+pg*PageBytes+16, buf); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.FaultsInRange(c.Base(), 2*PageBytes); got != 2 {
		t.Fatalf("faults in pages 0-1 = %d, want 2", got)
	}
	if got := c.FaultsInRange(c.Base()+5*PageBytes, PageBytes); got != 1 {
		t.Fatalf("faults in page 5 = %d, want 1", got)
	}
	if got := c.FaultsInRange(c.Base()+2*PageBytes, 3*PageBytes); got != 0 {
		t.Fatalf("faults in untouched pages = %d, want 0", got)
	}
	// A range starting below the region clamps to the base.
	if got := c.FaultsInRange(c.Base()-PageBytes, 3*PageBytes); got != 2 {
		t.Fatalf("clamped range = %d, want 2", got)
	}
}

func TestSettleAsyncClearsInflight(t *testing.T) {
	c, clk := newCache(t, 8, 8*PageBytes, seqPrefetch{n: 4})
	buf := make([]byte, 8)
	if err := c.Read(clk, c.Base(), buf); err != nil {
		t.Fatal(err)
	}
	// The prefetched pages carry future readyAt stamps; settling must
	// clear them so a fresh-clock thread sees no phantom waits.
	c.SettleAsync()
	fresh := sim.NewClock(0)
	before := c.Stats().MinorFaults
	if err := c.Read(fresh, c.Base()+PageBytes, buf); err != nil {
		t.Fatal(err)
	}
	if c.Stats().MinorFaults != before+1 {
		t.Fatal("prefetched page not minor-faulted after settle")
	}
	if fresh.Now().Sub(0) > 10*sim.Microsecond {
		t.Fatalf("settled page still charged a wait: %v", fresh.Now())
	}
}

func TestSetLockSerializesFaults(t *testing.T) {
	lock := &sim.Serializer{}
	mk := func(l *sim.Serializer) sim.Time {
		c, clk := newCache(t, 4, 8*PageBytes, nil)
		if l != nil {
			c.SetLock(l)
		}
		buf := make([]byte, 8)
		for pg := uint64(0); pg < 4; pg++ {
			if err := c.Read(clk, c.Base()+pg*PageBytes, buf); err != nil {
				t.Fatal(err)
			}
		}
		return clk.Now()
	}
	free := mk(nil)
	// Pre-load the serializer with a queue from a "previous thread".
	for i := 0; i < 4; i++ {
		lock.Acquire(0, 5*sim.Microsecond)
	}
	locked := mk(lock)
	if locked <= free {
		t.Fatalf("contended faults not slower: %v vs %v", locked, free)
	}
}

func TestSetPrefetcherSwapsBehavior(t *testing.T) {
	c, clk := newCache(t, 8, 8*PageBytes, nil)
	buf := make([]byte, 8)
	if err := c.Read(clk, c.Base(), buf); err != nil {
		t.Fatal(err)
	}
	if c.Stats().Prefetches != 0 {
		t.Fatal("no policy, yet prefetches were issued")
	}
	c.SetPrefetcher(seqPrefetch{n: 2})
	if err := c.Read(clk, c.Base()+4*PageBytes, buf); err != nil {
		t.Fatal(err)
	}
	if c.Stats().Prefetches == 0 {
		t.Fatal("installed prefetcher never ran")
	}
	// Nil resets to prefetch.None without crashing.
	c.SetPrefetcher(nil)
	if err := c.Read(clk, c.Base()+7*PageBytes, buf); err != nil {
		t.Fatal(err)
	}
}

// scriptLink is the transport under a differential run: it logs every data
// operation, fails the operations the script arms, and lets the script open
// the breaker (the degraded write-allocate path).
type scriptLink struct {
	transport.Link
	log     []string
	failIn  int // the failIn-th data operation from now fails (0: none armed)
	failErr error
	open    bool
}

func (l *scriptLink) op(kind string, now sim.Time, addr uint64, n int) error {
	l.log = append(l.log, fmt.Sprintf("%s@%d %#x+%d", kind, now, addr, n))
	if l.failIn > 0 {
		if l.failIn--; l.failIn == 0 {
			l.log = append(l.log, "failed")
			return l.failErr
		}
	}
	return nil
}

func (l *scriptLink) ReadOneSided(now sim.Time, addr uint64, buf []byte) (sim.Time, error) {
	if err := l.op("read", now, addr, len(buf)); err != nil {
		return now, err
	}
	return l.Link.ReadOneSided(now, addr, buf)
}

func (l *scriptLink) WriteOneSided(now sim.Time, addr uint64, buf []byte) (sim.Time, error) {
	if err := l.op("write", now, addr, len(buf)); err != nil {
		return now, err
	}
	return l.Link.WriteOneSided(now, addr, buf)
}

func (l *scriptLink) GatherOneSided(now sim.Time, addrs []uint64, sizes []int) ([]byte, sim.Time, error) {
	total := 0
	for _, s := range sizes {
		total += s
	}
	if err := l.op(fmt.Sprintf("gather%v", addrs), now, addrs[0], total); err != nil {
		return nil, now, err
	}
	return l.Link.GatherOneSided(now, addrs, sizes)
}

func (l *scriptLink) BreakerOpen(sim.Time) bool { return l.open }

// touchSeq is seqPrefetch with the runahead top-up of a stream policy
// (prefetch.StreamTopUp), proposals that fall off both ends of the region
// and a 700 ns consult that delays its advisory fetches.
type touchSeq struct{ n int64 }

func (touchSeq) Name() string { return "touchseq" }
func (p touchSeq) OnMiss(page int64, out []int64) []int64 {
	return append(seqPrefetch{n: p.n}.OnMiss(page, out), page-1, -3)
}
func (touchSeq) PerMissOverhead() sim.Duration { return 700 * sim.Nanosecond }
func (p touchSeq) OnPrefetchedTouch(page int64, out []int64) []int64 {
	return append(out, page+p.n, page+p.n+1)
}

// kernelLeap is prefetch.Leap predicting inside the fault handler, as the
// Leap baseline runs it: its advisory fetch is not delayed, and its
// detection cost is on the fault path instead.
type kernelLeap struct{ *prefetch.Leap }

func (kernelLeap) PerMissOverhead() sim.Duration { return 0 }

// diffPolicy is one prefetcher of the differential, pf0 to pf3 in subtest
// names: build makes a fresh policy (nil: none), and fault is what it adds
// to every major fault. The cache runs the policy with fault added to
// Config.MajorFaultOverhead; the reference runs it through refHooks, which
// charges fault in the handler and the policy's PerMissOverhead as the
// issue delay.
type diffPolicy struct {
	build func() prefetch.Policy
	fault sim.Duration
}

// swapUnderTest is what the differential script drives: the arena cache and
// the reference model it replaced.
type swapUnderTest interface {
	Read(*sim.Clock, uint64, []byte) error
	Write(*sim.Clock, uint64, []byte) error
	PrefetchPages(*sim.Clock, []int64) error
	FlushAll(*sim.Clock) error
	SettleAsync()
	Stats() Stats
	FaultsInRange(uint64, int64) int64
	Resident() int
}

// lists reports the page numbers on the inactive and the active list, front
// to back: equal lists mean equal victims from here on.
func (c *Cache) lists() (out [2][]int64) {
	for l := range out {
		for i := c.lru.Front(cache.List(l)); i >= 0; i = c.lru.Next(i) {
			out[l] = append(out[l], c.frames[i].no)
		}
	}
	return out
}

func (c *refCache) lists() (out [2][]int64) {
	for l, lst := range []*list.List{c.inactive, c.active} {
		for el := lst.Front(); el != nil; el = el.Next() {
			out[l] = append(out[l], el.Value.(*refPage).no)
		}
	}
	return out
}

// checkArena asserts the frame accounting: every frame ever made is either
// resident or free, and no more were made than the pool holds.
func checkArena(t *testing.T, c *Cache) {
	t.Helper()
	if c.Resident()+len(c.free) != len(c.frames) || len(c.frames) > c.capacity {
		t.Fatalf("arena: resident %d + free %d != frames %d (capacity %d)",
			c.Resident(), len(c.free), len(c.frames), c.capacity)
	}
	seen := map[int32]bool{}
	for _, i := range c.free {
		if seen[i] || c.resident(i) {
			t.Fatalf("arena: frame %d is on the free list twice or still resident", i)
		}
		seen[i] = true
	}
}

// diffPair is the arena cache and the reference model it replaced
// (ref_test.go) over twin far nodes, driven in lockstep.
type diffPair struct {
	t          *testing.T
	cn         *Cache
	cr         *refCache
	ln, lr     *scriptLink
	farN, farR *farmem.Node
	clkN, clkR *sim.Clock
	steps      int
}

func newDiffPair(t *testing.T, pool int, length int64, dp diffPolicy, batch bool) *diffPair {
	t.Helper()
	rigN := newUnalignedRig(t, pool, length, nil, batch)
	rigR := newUnalignedRig(t, pool, length, nil, batch)
	d := &diffPair{t: t, farN: rigN.node, farR: rigR.node, clkN: sim.NewClock(0), clkR: sim.NewClock(0),
		ln: &scriptLink{Link: rigN.tr}, lr: &scriptLink{Link: rigR.tr}}
	cfg := rigN.c.cfg
	cfg.Net = netmodel.DefaultConfig() // staggered readiness inside a batch
	cfgN := cfg
	cfgN.MajorFaultOverhead += dp.fault
	var pfN prefetch.Policy
	var pfR refPrefetcher
	if dp.build != nil {
		pfN, pfR = dp.build(), refHooks{p: dp.build(), fault: dp.fault}
	}
	var err error
	if d.cn, err = New(cfgN, transporttest.Scribble(d.ln), rigN.c.base, length, pfN); err != nil {
		t.Fatal(err)
	}
	if d.cr, err = newRefCache(cfg, d.lr, rigR.c.base, length, pfR); err != nil {
		t.Fatal(err)
	}
	if d.cn.base != d.cr.base {
		t.Fatalf("rigs differ: base %#x vs %#x", d.cn.base, d.cr.base)
	}
	return d
}

// failNext arms both links: the in-th data operation from now fails with err.
func (d *diffPair) failNext(in int, err error) {
	d.ln.failIn, d.ln.failErr = in, err
	d.lr.failIn, d.lr.failErr = in, err
}

// both runs one step on the two caches and demands the same error, bytes,
// clock, Stats, fault attribution, list order (so the same victims from here
// on), wire log and far image, and a consistent arena. It returns the error.
func (d *diffPair) both(what string, do func(c swapUnderTest, clk *sim.Clock) ([]byte, error)) error {
	t, cn, cr := d.t, d.cn, d.cr
	t.Helper()
	d.steps++
	what = fmt.Sprintf("step %d %s", d.steps, what)
	gotN, errN := do(cn, d.clkN)
	gotR, errR := do(cr, d.clkR)
	if fmt.Sprint(errN) != fmt.Sprint(errR) {
		t.Fatalf("%s: error %v, reference %v", what, errN, errR)
	}
	if !bytes.Equal(gotN, gotR) {
		t.Fatalf("%s: bytes differ from the reference", what)
	}
	if d.clkN.Now() != d.clkR.Now() {
		t.Fatalf("%s: clock %v, reference %v", what, d.clkN.Now(), d.clkR.Now())
	}
	if cn.Stats() != cr.Stats() {
		t.Fatalf("%s: stats\n%+v\nreference\n%+v", what, cn.Stats(), cr.Stats())
	}
	if a, b := cn.lists(), cr.lists(); !reflect.DeepEqual(a, b) || cn.Resident() != cr.Resident() {
		t.Fatalf("%s: lists [inactive active] %v, reference %v", what, a, b)
	}
	for no := int64(-1); no < cn.npages(); no++ {
		far, n := cn.base+uint64(no)*PageBytes, int64(PageBytes)
		if no < 0 {
			far, n = cn.base, cn.length
		}
		if a, b := cn.FaultsInRange(far, n), cr.FaultsInRange(far, n); a != b {
			t.Fatalf("%s: FaultsInRange(page %d) = %d, reference %d", what, no, a, b)
		}
	}
	if !reflect.DeepEqual(d.ln.log, d.lr.log) {
		t.Fatalf("%s: wire log differs\n%v\nreference\n%v", what, tail(d.ln.log), tail(d.lr.log))
	}
	imgN, imgR := make([]byte, cn.length), make([]byte, cn.length)
	if err := d.farN.Read(cn.base, imgN); err != nil {
		t.Fatal(err)
	}
	if err := d.farR.Read(cr.base, imgR); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(imgN, imgR) {
		t.Fatalf("%s: far images differ", what)
	}
	checkArena(t, cn)
	return errN
}

// TestDifferentialAgainstReference drives the arena cache and the map +
// container/list cache it replaced with the same seeded script — reads,
// writes, degraded full-page stores, policy proposals, batched prefetch,
// FlushAll, SettleAsync, stream top-ups and injected transport failures,
// over pools of 1, 2, 3 and many pages and a region with a short tail page
// — checking everything diffPair.both checks after every step. The
// reference charges a prefetcher's fault-path cost in the handler and its
// issue delay on the fetch, at two sites; the cache states the first in its
// Config and charges the policy's PerMissOverhead on the fetch. Running
// both under no policy, readahead, a stream policy with both costs and Leap
// checks that moving the charge changed no clock.
func TestDifferentialAgainstReference(t *testing.T) {
	const length = 13*PageBytes + 1234
	fails := []error{transport.ErrTimeout, transport.ErrFarUnavailable, errors.New("injected hard failure")}
	pfs := []diffPolicy{
		{}, // none
		{build: func() prefetch.Policy { return prefetch.Readahead{N: 3} }},
		{build: func() prefetch.Policy { return touchSeq{n: 2} }, fault: 300 * sim.Nanosecond},
		{build: func() prefetch.Policy { return kernelLeap{prefetch.NewLeap(4, 3)} }, fault: prefetch.NewLeap(0, 0).PerMissOverhead()},
	}
	for _, pool := range []int{1, 2, 3, 8} {
		for pi, pf := range pfs {
			for _, batch := range []bool{false, true} {
				for seed := uint64(1); seed <= 3; seed++ {
					t.Run(fmt.Sprintf("pool%d/pf%d/batch%v/seed%d", pool, pi, batch, seed), func(t *testing.T) {
						runScript(newDiffPair(t, pool, length, pf, batch), sim.NewRNG(seed), fails)
					})
				}
			}
		}
	}
}

func runScript(d *diffPair, rng *sim.RNG, fails []error) {
	base, length, npages := d.cn.base, d.cn.length, d.cn.npages()
	for step := 0; step < 300; step++ {
		switch k := rng.Intn(20); {
		case k < 6: // read, possibly across a page boundary
			off := uint64(rng.Int63()) % uint64(length-64)
			n := 1 + rng.Intn(64)
			d.both("read", func(c swapUnderTest, clk *sim.Clock) ([]byte, error) {
				buf := make([]byte, n)
				return buf, c.Read(clk, base+off, buf)
			})
		case k < 11: // write
			off := uint64(rng.Int63()) % uint64(length-64)
			src := make([]byte, 1+rng.Intn(64))
			for i := range src {
				src[i] = byte(rng.Intn(256))
			}
			d.both("write", func(c swapUnderTest, clk *sim.Clock) ([]byte, error) {
				return nil, c.Write(clk, base+off, src)
			})
		case k < 13: // whole-page store, sometimes with the breaker open
			no := rng.Int63() % npages
			src := bytes.Repeat([]byte{byte(step)}, d.cn.pageSize(no))
			d.ln.open = rng.Intn(2) == 0
			d.lr.open = d.ln.open
			d.both("page store", func(c swapUnderTest, clk *sim.Clock) ([]byte, error) {
				return nil, c.Write(clk, base+uint64(no)*PageBytes, src)
			})
			d.ln.open, d.lr.open = false, false
		case k < 15: // compiled prefetch of arbitrary pages, some out of range
			pnos := make([]int64, 1+rng.Intn(9))
			for i := range pnos {
				pnos[i] = rng.Int63()%(npages+3) - 1
			}
			d.both("prefetch", func(c swapUnderTest, clk *sim.Clock) ([]byte, error) {
				return nil, c.PrefetchPages(clk, pnos)
			})
		case k < 17:
			d.both("flush all", func(c swapUnderTest, clk *sim.Clock) ([]byte, error) {
				return nil, c.FlushAll(clk)
			})
		case k < 18:
			d.both("settle", func(c swapUnderTest, clk *sim.Clock) ([]byte, error) {
				c.SettleAsync()
				return nil, nil
			})
		default: // one of the next few transport operations fails
			d.failNext(1+rng.Intn(3), fails[rng.Intn(len(fails))])
		}
	}
}

// tail keeps failure messages readable.
func tail(log []string) []string {
	if len(log) > 12 {
		return log[len(log)-12:]
	}
	return log
}
