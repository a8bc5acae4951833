// Package rt implements Mira's local-node runtime (§4.4, §5): the section
// manager over the configurable cache, the remote-pointer dereference fast
// and slow paths, asynchronous prefetch and eviction-hint machinery,
// selective transmission, and bulk tensor paths, over a cluster.Pool of far
// nodes — one node unless the configuration names a cluster.
//
// Every operation takes the simulated thread's clock and charges virtual
// time according to the CostModel and the network model; data movement is
// real, so programs executed through the runtime compute correct results.
package rt

import (
	"fmt"
	"sort"

	"mira/internal/cache"
	"mira/internal/cluster"
	"mira/internal/codec"
	"mira/internal/farmem"
	"mira/internal/ir"
	"mira/internal/offload"
	"mira/internal/prefetch"
	"mira/internal/sim"
	"mira/internal/swap"
	"mira/internal/trace"
	"mira/internal/transport"
)

// AccessOpts carries the compiler's per-site annotations into the runtime.
type AccessOpts struct {
	// Native marks a dereference the compiler proved resolvable as a
	// native load (§4.4). If the line is unexpectedly absent the access
	// falls back to the full path.
	Native bool
	// NoFetch marks a store that the compiler proved will overwrite the
	// whole line (write-only loops, §4.5): a miss allocates the line
	// without fetching it.
	NoFetch bool
}

// Runtime is one compute-node runtime instance.
type Runtime struct {
	cfg  Config
	pool *cluster.Pool  // the far side: the untimed data and alloc path
	tr   transport.Link // the timed data path: the pool

	engine *offload.Engine // scatter-gather offload engine
	swapC  *swap.Cache
	swapSz int64 // bytes of swap-placed objects
	secs   []*sectionRT
	objs   map[string]*objectRT

	// secMisses is Σ sec.Stats().Misses over the sections, kept beside them
	// so MissCount is a field read: lineFor's Lookup is the one place a
	// section counts a miss, and ResetStats and SetSectionScale are the two
	// places a section's count goes back to zero.
	secMisses int64

	localBytes int64 // local-placed object bytes (count against budget)
	lastFlush  sim.Time
	wbqStats   WbqStats
	// Scratch of one write-back drain (drainWbq): the scatter vectors and
	// the bytes of coalesced runs.
	drainAddrs  []uint64
	drainPieces [][]byte
	drainRuns   []byte
	// Scratch of one delta write-back plan (deltaPlan): the dirty line's
	// changed runs.
	deltaRuns []codec.Range
	// Scratch of one speculative gather (land): its vectors.
	landAddrs []uint64
	landSizes []int
	// Scratch of one batched prefetch (PrefetchBatch): the lines it claimed
	// and the far addresses of its swap-placed entries; and of one page
	// advisory (swapPages): its page numbers.
	batchLines []claimed
	swapFars   []uint64
	pnos       []int64

	// byFar indexes section-placed objects sorted by farBase, so dirty-line
	// owner resolution is deterministic (see ownerOf). Rebuilt by Bind.
	byFar []*objectRT

	// trc is the runtime's trace buffer (nil when tracing is disabled);
	// reg is the metrics registry backing lazily-created per-tid counters.
	trc *trace.Buffer
	reg *trace.Registry

	// activeTid is the simulated thread currently driving the runtime
	// (SetActiveTid); cache events are attributed to it.
	activeTid int

	// secScale is the live elastic scale of the cache sections (0 or 1 =
	// the bound size; see SetSectionScale).
	secScale float64
}

type sectionRT struct {
	id   uint16 // RemotePtr section ID (1-based; 0 = local)
	spec SectionSpec
	sec  cache.Section
	wbq  *writebackQueue // async eviction pipeline (nil when disabled)

	// policy is the section's advisory miss-path prefetcher (nil = none),
	// and pf accumulates the zoo's efficacy counters. Every prefetch path —
	// compiled statements and the policy hook — feeds the same counters.
	policy prefetch.Policy
	pf     prefetch.Efficacy
	// Scratch of one speculative issue, kept so that proposing and filtering
	// allocate nothing: the policy's proposals, then the lines worth a fetch.
	props []int64
	want  []claimed
	// lines is linesIn's scratch.
	lines []*cache.Line
	// latestReady's running maximum and the visitor that folds into it.
	latest    sim.Time
	foldReady func(*cache.Line)

	// snaps holds the last-fetched bytes of each resident line when the
	// section compresses (spec.Compress): write-back diffs against the
	// snapshot and ships only the changed ranges. Nil when disabled. A
	// snapshot lives exactly as long as its line is resident — it is taken
	// at fetch into a buffer from the section's stock (Spare) and goes back
	// (Recycle) when the line leaves the cache, clean or planned.
	snaps map[uint64][]byte

	// Per-section metrics (all nil when tracing is disabled).
	mHit, mMiss, mEvict                          *trace.Counter
	mPfIssued, mPfUseful, mPfUseless, mPfDropped *trace.Counter
	mMissLat                                     *trace.Histogram
	mNativeFallback                              *trace.Counter

	// nativeFallbacks counts native accesses that did not find their line
	// resident and took the lookup path instead.
	nativeFallbacks int64
	// stall is the sim time the section has stalled its program
	// (SectionStall).
	stall sim.Duration

	// Per-tid attribution, indexed by simulated thread id and grown on
	// demand: interleaved threads sharing this section each see their own
	// hit/miss/evict counts (eviction interference shows up here). The
	// parallel trace counters are created lazily per tid; lblOpen is the
	// section's label prefix without the closing brace.
	tidHits, tidMisses, tidEvicts []int64
	mTidHit, mTidMiss, mTidEvict  []*trace.Counter
	lblOpen                       string
}

type objectRT struct {
	decl    *ir.Object
	place   Placement
	farBase uint64 // far address of element 0 (swap or section placement)
	local   []byte // backing when PlaceLocal
	// selective-transmission resolution for the object's section
	selFields []ir.Field
	selBytes  int
	// per-object access counters (Fig. 8's per-array miss rates)
	hits, misses int64
}

// unitBytes is the section's prefetch unit: its stride (cache.Config.Stride),
// which is its line unless the section caches one field span per element.
func (s *sectionRT) unitBytes() uint64 {
	return uint64(max(s.spec.Cache.Stride, s.spec.Cache.LineBytes))
}

// lineRange is the tag range [lo, hi) of o's lines in its section s.
func (o *objectRT) lineRange(s *sectionRT) (lo, hi uint64) {
	return cache.AlignDown(o.farBase, s.spec.Cache.LineBytes), o.farBase + uint64(o.decl.SizeBytes())
}

// Handle names a bound object without its name: what a caller that touches
// the same object many times (the executor's resolved access nodes) holds in
// place of the string, so the dereference path starts at the object instead
// of at a map. A handle stays valid for the runtime's life — Bind makes each
// objectRT once and its placement never changes — and means nothing to any
// other runtime. The zero Handle names no object.
type Handle struct{ o *objectRT }

// Handle resolves a bound object's handle.
func (r *Runtime) Handle(name string) (Handle, bool) {
	o, ok := r.objs[name]
	return Handle{o}, ok
}

// wrapLink, when a test sets it, wraps the link every new runtime — its
// sections and its swap pool — drives (transporttest.ScribbleLink). Nil
// outside tests.
var wrapLink func(transport.Link) transport.Link

// New creates a runtime over a pool of far nodes: cfg.Cluster's, or — when
// cfg names no cluster — a one-node pool whose node is configured like
// node (the testbed's, cluster.Testbed, when node is nil). Call Bind before
// executing a program.
func New(cfg Config, node *farmem.Node) (*Runtime, error) {
	if cfg.Cost == (CostModel{}) {
		cfg.Cost = DefaultCostModel()
	}
	if cfg.Net.BytesPerSecond == 0 {
		cfg.Net = DefaultNet()
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	copts := cluster.Options{Nodes: 1}
	if cfg.Cluster != nil {
		copts = *cfg.Cluster
	} else if node != nil {
		copts.NodeCfg = farmem.NodeConfig{Capacity: node.Capacity(), CPUSlowdown: node.CPUSlowdown()}
	}
	if copts.Net.BytesPerSecond == 0 {
		copts.Net = cfg.Net
	}
	pool, err := cluster.New(copts)
	if err != nil {
		return nil, err
	}
	r := &Runtime{
		cfg:  cfg,
		objs: make(map[string]*objectRT),
		pool: pool,
		tr:   pool,
	}
	r.engine = offload.NewEngine(pool, r, offload.Config{Net: cfg.Net, LocalCost: cfg.Cost.NativeAccess})
	if wrapLink != nil {
		r.tr = wrapLink(r.tr)
	}
	for i, spec := range cfg.Sections {
		sec, err := cache.New(spec.Cache)
		if err != nil {
			return nil, err
		}
		srt := &sectionRT{
			id:   uint16(i + 1),
			spec: spec,
			sec:  sec,
			wbq:  newWritebackQueue(cfg.writebackQueueLimit()),
		}
		if spec.Compress {
			srt.snaps = make(map[uint64][]byte)
		}
		r.secs = append(r.secs, srt)
	}
	return r, nil
}

// Close hands the storage of the runtime's sections and swap pool back for
// the next runtime of the process to reuse (cache.Release, swap.Cache.Release).
// The runtime must not be used afterwards; its far memory is its pool's to
// release.
func (r *Runtime) Close() {
	for _, s := range r.secs {
		cache.Release(s.sec)
	}
	if r.swapC != nil {
		r.swapC.Release()
	}
}

// Transport is nil: every runtime runs over its pool (Pool). It is kept for
// the benchmark's decorators, which tap the pool's node transports when it
// is nil.
func (r *Runtime) Transport() *transport.T { return nil }

// Link exposes the timed far-memory data path: the pool.
func (r *Runtime) Link() transport.Link { return r.tr }

// Pool exposes the far-node pool.
func (r *Runtime) Pool() *cluster.Pool { return r.pool }

// ScatterEngine exposes the scatter-gather offload engine. The executor
// probes for this capability to scatter an offloaded call across the
// pool's nodes.
func (r *Runtime) ScatterEngine() *offload.Engine { return r.engine }

// ObjectExtent implements offload.Resolver: the far extent of a bound,
// non-local object. Local objects report ok=false — offloaded code must
// not touch them.
func (r *Runtime) ObjectExtent(name string) (base uint64, elemBytes int, count int64, ok bool) {
	o, found := r.objs[name]
	if !found || o.place.Kind == PlaceLocal {
		return 0, 0, 0, false
	}
	return o.farBase, o.decl.ElemBytes, o.decl.Count, true
}

// Config returns the runtime's configuration.
func (r *Runtime) Config() Config { return r.cfg }

// Bind allocates every object of p according to the configured placements
// and creates the swap section over the swap-placed heap. Initial object
// contents are zero; use InitObject to load workload data.
func (r *Runtime) Bind(p *ir.Program) error {
	// Partition objects.
	var swapObjs []*ir.Object
	for _, o := range p.Objects {
		pl, ok := r.cfg.Placements[o.Name]
		if !ok {
			if o.Local {
				pl = Placement{Kind: PlaceLocal}
			} else {
				pl = Placement{Kind: PlaceSwap}
			}
		}
		ort := &objectRT{decl: o, place: pl}
		switch pl.Kind {
		case PlaceLocal:
			ort.local = make([]byte, o.SizeBytes())
			r.localBytes += o.SizeBytes()
		case PlaceSwap:
			swapObjs = append(swapObjs, o)
		case PlaceSection:
			s := r.secs[pl.Section]
			lb := s.unitBytes()
			// Align the base and pad the tail so every line of
			// the object stays inside its allocation. A strided
			// section aligns to its stride, so an element's lines share
			// its unit (LineUnit).
			size := (uint64(o.SizeBytes()) + 2*lb + lb - 1) / lb * lb
			// The section ID is the placement key, so every object of a
			// section colocates on the section's home node and
			// misses/evictions/flushes route there.
			base, err := r.pool.AllocSection(s.id, size)
			if err != nil {
				return fmt.Errorf("rt: bind %q: %w", o.Name, err)
			}
			ort.farBase = (base + lb - 1) / lb * lb
			r.resolveSelective(ort, s)
		}
		r.objs[o.Name] = ort
	}
	// Lay swap objects out in one contiguous heap region.
	if len(swapObjs) > 0 {
		sort.Slice(swapObjs, func(i, j int) bool { return swapObjs[i].Name < swapObjs[j].Name })
		var total int64
		offsets := make(map[string]int64, len(swapObjs))
		for _, o := range swapObjs {
			offsets[o.Name] = total
			total += (o.SizeBytes() + swap.PageBytes - 1) / swap.PageBytes * swap.PageBytes
		}
		// The swap heap is striped across the nodes.
		base, err := r.pool.Alloc(uint64(total))
		if err != nil {
			return fmt.Errorf("rt: bind swap heap: %w", err)
		}
		pool := r.cfg.SwapPool
		if pool <= 0 {
			return fmt.Errorf("rt: program has swap-placed objects but SwapPool is %d", pool)
		}
		sc, err := swap.New(r.cfg.effectiveSwapCfg(pool), r.tr, base, total, nil)
		if err != nil {
			return err
		}
		r.swapC = sc
		r.swapSz = total
		for _, o := range swapObjs {
			r.objs[o.Name].farBase = base + uint64(offsets[o.Name])
		}
	}
	if r.localBytes+r.cfg.CarveUpBytes() > r.cfg.LocalBudget {
		return fmt.Errorf("rt: local objects (%d) + cache carve-up exceed budget %d",
			r.localBytes, r.cfg.LocalBudget)
	}
	r.rebuildOwnerIndex()
	return nil
}

// resolveSelective precomputes the object's selective-transmission field
// set for its section.
func (r *Runtime) resolveSelective(ort *objectRT, s *sectionRT) {
	if !s.spec.TwoSided || len(s.spec.SelectiveFields) == 0 {
		return
	}
	total := 0
	for _, name := range s.spec.SelectiveFields {
		if f, ok := ort.decl.FieldByName(name); ok {
			ort.selFields = append(ort.selFields, f)
			total += f.Bytes
		}
	}
	// Selective transmission only pays off if it moves fewer bytes than
	// the whole element.
	if total == 0 || total >= ort.decl.ElemBytes {
		ort.selFields = nil
		total = 0
	}
	ort.selBytes = total
}

// InitObject loads workload bytes into an object before timed execution
// (setup is free: the paper's figures never charge data-generation time).
func (r *Runtime) InitObject(name string, data []byte) error {
	o, ok := r.objs[name]
	if !ok {
		return fmt.Errorf("rt: InitObject: unknown object %q", name)
	}
	if int64(len(data)) > o.decl.SizeBytes() {
		return fmt.Errorf("rt: InitObject %q: %d bytes exceed object size %d", name, len(data), o.decl.SizeBytes())
	}
	if o.place.Kind == PlaceLocal {
		copy(o.local, data)
		return nil
	}
	return r.pool.Write(o.farBase, data)
}

// DumpObject returns the object's current contents where one home holds
// them, in place: a local object's backing, or a far node's bytes
// (cluster.Pool.View). Only an object a pool stripes across nodes is
// assembled into a copy. The result is read-only and valid until the
// runtime is next used; a caller that keeps it past that clones it. Call
// FlushAll first to include dirty cached lines.
func (r *Runtime) DumpObject(name string) ([]byte, error) {
	o, ok := r.objs[name]
	if !ok {
		return nil, fmt.Errorf("rt: DumpObject: unknown object %q", name)
	}
	if o.place.Kind == PlaceLocal {
		return o.local[:len(o.local):len(o.local)], nil
	}
	return r.pool.View(o.farBase, int(o.decl.SizeBytes()))
}

// FarAddr returns the far address of obj[elem] (offload argument marshaling,
// §4.8). Local objects have no far address.
func (r *Runtime) FarAddr(name string, elem int64) (uint64, error) {
	o, ok := r.objs[name]
	if !ok {
		return 0, fmt.Errorf("rt: FarAddr: unknown object %q", name)
	}
	if o.place.Kind == PlaceLocal {
		return 0, fmt.Errorf("rt: FarAddr: object %q is local", name)
	}
	return o.farBase + uint64(elem)*uint64(o.decl.ElemBytes), nil
}

// Ptr returns the RemotePtr for obj[elem]: section ID in the high bits,
// offset within the object's section address space below (§5.2.1).
func (r *Runtime) Ptr(name string, elem int64) (RemotePtr, error) {
	o, ok := r.objs[name]
	if !ok {
		return 0, fmt.Errorf("rt: Ptr: unknown object %q", name)
	}
	off := uint64(elem) * uint64(o.decl.ElemBytes)
	switch o.place.Kind {
	case PlaceSection:
		return MakePtr(r.secs[o.place.Section].id, o.farBase-farmem.DefaultBase+off), nil
	default:
		return MakePtr(LocalSection, off), nil
	}
}

// Access reads or writes the byte range of obj[elem].field, charging clk.
func (r *Runtime) Access(clk *sim.Clock, name string, elem int64, field ir.Field, buf []byte, write bool, opts AccessOpts) error {
	o, ok := r.objs[name]
	if !ok {
		return fmt.Errorf("rt: access to unknown object %q", name)
	}
	return r.AccessH(clk, Handle{o}, elem, field, buf, write, opts)
}

// AccessH is Access on a handle.
func (r *Runtime) AccessH(clk *sim.Clock, h Handle, elem int64, field ir.Field, buf []byte, write bool, opts AccessOpts) error {
	o := h.o
	if elem < 0 || elem >= o.decl.Count {
		return fmt.Errorf("rt: %q[%d] out of range [0,%d)", o.decl.Name, elem, o.decl.Count)
	}
	off := uint64(elem)*uint64(o.decl.ElemBytes) + uint64(field.Offset)
	if len(buf) > field.Bytes {
		buf = buf[:field.Bytes]
	}
	switch o.place.Kind {
	case PlaceLocal:
		clk.Advance(r.cfg.Cost.NativeAccess)
		if write {
			copy(o.local[off:], buf)
		} else {
			copy(buf, o.local[off:])
		}
		return nil
	case PlaceSwap:
		clk.Advance(r.cfg.Cost.NativeAccess)
		if r.cfg.SwapCompress {
			r.setCodec(codec.ByteRun)
			defer r.setCodec(codec.None)
		}
		if write {
			return r.swapC.Write(clk, o.farBase+off, buf)
		}
		return r.swapC.Read(clk, o.farBase+off, buf)
	default:
		return r.sectionAccess(clk, o, o.farBase+off, buf, write, opts)
	}
}

// sectionAccess performs a (possibly line-crossing) access through the
// object's cache section.
func (r *Runtime) sectionAccess(clk *sim.Clock, o *objectRT, far uint64, buf []byte, write bool, opts AccessOpts) error {
	s := r.secs[o.place.Section]
	lb := s.spec.Cache.LineBytes
	done := 0
	for done < len(buf) {
		addr := far + uint64(done)
		lineOff := int(addr - cache.AlignDown(addr, lb))
		n := lb - lineOff
		if n > len(buf)-done {
			n = len(buf) - done
		}
		full := write && lineOff == 0 && n == lb
		start := clk.Now()
		l, ev, err := r.lineFor(clk, s, o, addr, opts, write, full)
		s.stall += clk.Now().Sub(start)
		if err != nil {
			return err
		}
		if write {
			copy(l.Data[lineOff:], buf[done:done+n])
			l.Dirty = true
		} else {
			copy(buf[done:done+n], l.Data[lineOff:])
		}
		// The advisory policy runs only after the demand access has fully
		// completed: its speculative reservations may evict any line —
		// including the one just filled — without corrupting the
		// in-progress copy.
		switch ev {
		case accessMissed:
			r.policyMiss(clk, s, cache.AlignDown(addr, lb))
		case accessSpecTouched:
			r.policyTouch(clk, s, cache.AlignDown(addr, lb))
		}
		done += n
	}
	return nil
}

// accessEvent tells sectionAccess which advisory-policy hook (if any) a
// line access should fire once the data copy is done.
type accessEvent uint8

const (
	accessHit accessEvent = iota
	accessMissed
	accessSpecTouched
)

// lineFor returns the resident, ready cache line containing addr, running
// the dereference fast/slow path and charging clk, and reports whether the
// access demand-missed or first-touched a speculative line (the caller
// fires the section's advisory prefetch hooks after the access completes).
// fullLine marks a write that will overwrite the whole line.
func (r *Runtime) lineFor(clk *sim.Clock, s *sectionRT, o *objectRT, addr uint64, opts AccessOpts, write, fullLine bool) (*cache.Line, accessEvent, error) {
	if opts.Native {
		// Compiled native load: no lookup cost. The compiler proved
		// residency; verify cheaply and fall back if it was wrong
		// (e.g. a mid-loop eviction by another thread).
		if l, ok := s.sec.Peek(addr); ok {
			o.hits++
			s.mHit.Inc()
			r.bumpTid(s, &s.tidHits, &s.mTidHit, "hit")
			ev := accessHit
			if s.touchSpec(clk, l) {
				ev = accessSpecTouched
			}
			clk.Advance(r.cfg.Cost.NativeAccess)
			waitReady(clk, l)
			return l, ev, nil
		}
		// The compiler's residency claim failed: count it, so a run
		// shows how often it does.
		s.nativeFallbacks++
		s.mNativeFallback.Inc()
	}
	clk.Advance(r.cfg.Cost.Lookup(s.spec.Cache.Structure))
	if l, ok := s.sec.Lookup(addr); ok {
		o.hits++
		s.mHit.Inc()
		r.bumpTid(s, &s.tidHits, &s.mTidHit, "hit")
		ev := accessHit
		if s.touchSpec(clk, l) {
			ev = accessSpecTouched
		}
		waitReady(clk, l)
		return l, ev, nil
	}
	// Miss (§5.2.1 "loading an rmem pointer from far memory").
	r.secMisses++
	o.misses++
	s.mMiss.Inc()
	r.bumpTid(s, &s.tidMisses, &s.mTidMiss, "miss")
	clk.Advance(r.cfg.Cost.MissHandling)
	if r.cfg.Profiling {
		clk.Advance(r.cfg.Cost.ProfileEvent)
	}
	l, recovered, err := r.claim(clk, s, addr)
	if err != nil {
		return nil, accessHit, err
	}
	// A line recovered from the write-back queue needs no fetch, and neither
	// does a write-only full-line store, which allocates without fetching.
	// The second arm is the degraded-mode fallback to local allocation:
	// while the breaker is open, a store that overwrites the whole line need
	// not stall on a fetch that cannot succeed.
	if recovered || (write && (opts.NoFetch || (fullLine && r.tr.BreakerOpen(clk.Now())))) {
		return l, accessMissed, nil
	}
	fetchStart := clk.Now()
	done, err := r.fetch(fetchStart, s, o, l)
	if err != nil {
		return nil, accessHit, err
	}
	clk.AdvanceTo(done)
	if r.trc != nil {
		r.trc.Span(fetchStart, done, "rt", "miss",
			trace.S("section", s.spec.Cache.Name), trace.S("obj", o.decl.Name))
		s.mMissLat.Observe(int64(done.Sub(fetchStart)))
	}
	return l, accessMissed, nil
}

// setCodec installs a wire codec on the timed data path (every node link
// of the pool). The runtime flips it around each
// operation, so the codec is a property of the section or swap pool, not
// of the link — one link serves compressed and raw sections side by side.
// When nothing compresses, setCodec is never called and the transport's
// zero-cost None path carries all traffic untouched.
func (r *Runtime) setCodec(id codec.ID) { r.pool.SetWireCodec(id) }

// writebackLine pushes a dirty line to far memory (whole line one-sided or
// selective ranges two-sided).
func (r *Runtime) writebackLine(now sim.Time, s *sectionRT, o *objectRT, tag uint64, data []byte) (sim.Time, error) {
	if s.spec.Compress {
		r.setCodec(codec.ByteRun)
		defer r.setCodec(codec.None)
	}
	if len(o.selFields) == 0 {
		return r.tr.WriteOneSided(now, tag, data)
	}
	addrs, sizes, offs := r.selectivePieces(o, tag, len(data))
	pieces := make([][]byte, len(addrs))
	for i := range addrs {
		pieces[i] = data[offs[i] : offs[i]+sizes[i]]
	}
	return r.tr.ScatterTwoSided(now, addrs, pieces)
}

// writebackPatch ships only the changed ranges of a dirty line — the delta
// write-back path. Each range travels as a raw sub-range piece of one
// vectored write: raw bytes at sub-line addresses, so the transport's
// degraded-mode overlay merges patches with its ordinary non-overlap
// machinery and a queued patch needs no special expansion.
func (r *Runtime) writebackPatch(now sim.Time, s *sectionRT, tag uint64, data []byte, p *deltaPatch) (sim.Time, error) {
	if s.spec.Compress {
		r.setCodec(codec.ByteRun)
		defer r.setCodec(codec.None)
	}
	addrs := make([]uint64, p.n)
	pieces := make([][]byte, p.n)
	for i := range p.n {
		rg := p.at(i)
		addrs[i] = tag + uint64(rg.Off)
		pieces[i] = data[rg.Off : rg.Off+rg.Len]
	}
	return r.tr.ScatterWrite(now, addrs, pieces)
}

// selectivePieces computes the (far address, size, line offset) triples of
// the selective fields of every element overlapping the line [tag,
// tag+lineBytes).
func (r *Runtime) selectivePieces(o *objectRT, tag uint64, lineBytes int) (addrs []uint64, sizes []int, offs []int) {
	eb := uint64(o.decl.ElemBytes)
	end := tag + uint64(lineBytes)
	objEnd := o.farBase + uint64(o.decl.SizeBytes())
	if end > objEnd {
		end = objEnd
	}
	var firstElem int64
	if tag > o.farBase {
		firstElem = int64((tag - o.farBase) / eb)
	}
	for e := firstElem; ; e++ {
		elemBase := o.farBase + uint64(e)*eb
		if elemBase >= end || e >= o.decl.Count {
			break
		}
		for _, f := range o.selFields {
			fa := elemBase + uint64(f.Offset)
			fe := fa + uint64(f.Bytes)
			if fe <= tag || fa >= end {
				continue
			}
			// Clip to the line.
			if fa < tag {
				fa = tag
			}
			if fe > end {
				fe = end
			}
			addrs = append(addrs, fa)
			sizes = append(sizes, int(fe-fa))
			offs = append(offs, int(fa-tag))
		}
	}
	return addrs, sizes, offs
}
