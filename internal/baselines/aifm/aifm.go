// Package aifm models AIFM [Ruan et al., OSDI'20]: a library-based
// far-memory runtime with remotable pointers. Its paper-relevant behaviors
// (§2.1, §6.1):
//
//   - every access to a remote data item pays a software dereference
//     (remotable-pointer resolution, dereference-scope bookkeeping) — AIFM
//     is slower than native even at 100% local memory;
//   - each remotable object carries metadata that consumes local memory, so
//     arrays of small elements lose a large fraction of their cache to
//     metadata — the reason AIFM's MCF "fails to execute when local memory
//     is smaller than full size" (Fig. 18);
//   - data moves at object granularity with no program knowledge: no
//     compiler prefetch, no batching across library calls, whole objects
//     fetched even when one field is used.
//
// It implements exec.Backend, so the same IR programs that run on Mira run
// on AIFM unchanged.
package aifm

import (
	"fmt"
	"sort"

	"mira/internal/cluster"
	"mira/internal/ir"
	"mira/internal/netmodel"
	"mira/internal/rt"
	"mira/internal/sim"
	"mira/internal/trace"
	"mira/internal/transport"
	"mira/internal/workload"
)

// Options tunes the baseline.
type Options struct {
	// LocalBudget is the local memory in bytes; metadata is carved out
	// of it before any data caching.
	LocalBudget int64
	// MetaPerObject is the per-remotable-object metadata footprint
	// (remotable pointer + dereference-scope entry). Default 8 B — the
	// size of AIFM's unified remotable pointer; the element data itself
	// carries the object header when cached.
	MetaPerObject int64
	// ChunkBytes selects the remotable-object granularity. Zero models
	// AIFM's array library (one remotable object per element — the
	// configuration whose metadata makes MCF fail below full memory);
	// a positive value models chunked libraries like AIFM's own
	// DataFrame implementation, which packs elements into ~ChunkBytes
	// remotable objects (fewer pointers, but whole chunks move even
	// when one field is needed).
	ChunkBytes int64
	// Cluster is the pool of far nodes the remotable objects live on, with
	// its interconnect, fault domains and resilience policy (nil: one
	// default node).
	Cluster *cluster.Options
}

// derefCost is the software cost of each remotable-pointer dereference.
const derefCost = 85 * sim.Nanosecond

func (o Options) withDefaults() Options {
	if o.MetaPerObject == 0 {
		o.MetaPerObject = 8
	}
	co := cluster.Options{Nodes: 1}
	if o.Cluster != nil {
		co = *o.Cluster
	}
	if co.Net.BytesPerSecond == 0 {
		co.Net = netmodel.DefaultConfig()
	}
	o.Cluster = &co
	return o
}

// Runtime is the AIFM-style backend.
type Runtime struct {
	pool    *cluster.Pool
	tr      transport.Link // pool as the data path drives it
	objs    map[string]*objState
	cap     int64 // usable data bytes after metadata
	used    int64
	lru     entry        // list sentinel: lru.next is the most recent entry, lru.prev the least
	classes []*sizeClass // evicted entries awaiting reuse, by buffer size
	meta    int64

	// One-element vectors of a miss's gather and a write-back's scatter.
	addr1  [1]uint64
	size1  [1]int
	piece1 [1][]byte

	// lock serializes dereferences across simulated threads: the object
	// cache's shared state (LRU list, entry map, capacity accounting) is
	// guarded by one runtime lock, so a hit holds it for the dereference
	// bookkeeping and a miss holds it through eviction and fetch. This is
	// the synchronization that keeps AIFM's shared cache from scaling
	// with threads (Fig. 25); single-threaded runs never contend on it
	// and see identical timings.
	lock sim.Serializer

	// stats
	derefs, hits, misses, evictions, writebacks int64
}

type objState struct {
	decl    *ir.Object
	farBase uint64
	// chunkElems is the number of elements per remotable object.
	chunkElems int64
	// chunks is the remotable-object count.
	chunks int64
	// table is the entry index: table[c] is chunk c's cached entry, nil
	// when the chunk is remote. cached counts the non-nil slots.
	table  []*entry
	cached int
	class  *sizeClass
}

// entry is one cached remotable object, linked into the runtime's LRU list
// while cached and into its size class's free list (through next) once
// evicted.
type entry struct {
	obj        *objState
	chunk      int64
	data       []byte // len is the chunk's size, cap the class's unit
	dirty      bool
	prev, next *entry
}

// sizeClass recycles the entries (and with them the data buffers) of every
// object whose full chunk is unit bytes.
type sizeClass struct {
	unit int64
	free *entry
}

func (r *Runtime) classFor(unit int64) *sizeClass {
	for _, c := range r.classes {
		if c.unit == unit {
			return c
		}
	}
	c := &sizeClass{unit: unit}
	r.classes = append(r.classes, c)
	return c
}

// farAddr is the far address of chunk c.
func (o *objState) farAddr(c int64) uint64 {
	return o.farBase + uint64(c)*uint64(o.chunkElems)*uint64(o.decl.ElemBytes)
}

func (r *Runtime) pushFront(e *entry) {
	e.prev, e.next = &r.lru, r.lru.next
	e.prev.next, e.next.prev = e, e
}

func (e *entry) unlink() {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
}

// drop uncaches e — unlinked, unindexed, its bytes off the budget — and
// hands it to its size class for the next miss.
func (r *Runtime) drop(e *entry) {
	e.unlink()
	o := e.obj
	o.table[e.chunk] = nil
	o.cached--
	r.used -= int64(len(e.data))
	e.next, o.class.free = o.class.free, e
}

// writeBack ships e's bytes to the far node and returns when they land.
func (r *Runtime) writeBack(now sim.Time, e *entry) (sim.Time, error) {
	r.addr1[0], r.piece1[0] = e.obj.farAddr(e.chunk), e.data
	return r.tr.ScatterTwoSided(now, r.addr1[:], r.piece1[:])
}

// SetTrace attaches the deterministic tracing layer to the baseline's
// pool, so AIFM runs emit the same net-level spans and counters as the
// other systems. A nil tracer leaves tracing disabled.
func (r *Runtime) SetTrace(tr *trace.Tracer) { r.pool.SetTrace(tr) }

// wrapLink, when a test sets it, wraps the link every new runtime's data
// path drives (transporttest.ScribbleLink). Nil outside tests.
var wrapLink func(transport.Link) transport.Link

// New builds an AIFM runtime for w and loads its data. It returns an error
// when metadata leaves no room for data — the failure mode the paper
// observes for MCF below full memory.
func New(w workload.Workload, opts Options) (*Runtime, error) {
	opts = opts.withDefaults()
	prog := w.Program()
	pool, err := cluster.New(*opts.Cluster)
	if err != nil {
		return nil, err
	}
	r := &Runtime{pool: pool, tr: pool, objs: map[string]*objState{}}
	r.lru.prev, r.lru.next = &r.lru, &r.lru
	if wrapLink != nil {
		r.tr = wrapLink(r.tr)
	}
	var maxUnit int64
	for _, o := range prog.Objects {
		if o.Local {
			continue
		}
		base, err := pool.Alloc(uint64(o.SizeBytes()))
		if err != nil {
			return nil, err
		}
		chunkElems := int64(1)
		if opts.ChunkBytes > 0 {
			chunkElems = opts.ChunkBytes / int64(o.ElemBytes)
			if chunkElems < 1 {
				chunkElems = 1
			}
		}
		chunks := (o.Count + chunkElems - 1) / chunkElems
		unit := chunkElems * int64(o.ElemBytes)
		r.objs[o.Name] = &objState{decl: o, farBase: base, chunkElems: chunkElems, chunks: chunks, class: r.classFor(unit)}
		r.meta += chunks * opts.MetaPerObject
		if unit > maxUnit {
			maxUnit = unit
		}
	}
	r.cap = opts.LocalBudget - r.meta
	if r.cap < maxUnit {
		return nil, fmt.Errorf("aifm: %d bytes of remotable-pointer metadata leave no usable cache in %d-byte budget (fails to execute)",
			r.meta, opts.LocalBudget)
	}
	for _, o := range r.objs {
		o.table = make([]*entry, o.chunks)
	}
	if err := w.Init(r); err != nil {
		return nil, err
	}
	return r, nil
}

// MetadataBytes reports the remotable-pointer metadata footprint (Fig. 20).
func (r *Runtime) MetadataBytes() int64 { return r.meta }

// InitObject loads workload bytes (untimed setup).
func (r *Runtime) InitObject(name string, data []byte) error {
	o, ok := r.objs[name]
	if !ok {
		return fmt.Errorf("aifm: unknown object %q", name)
	}
	return r.pool.Write(o.farBase, data)
}

// DumpObject returns the object's far contents in place (cluster.Pool.View):
// read-only, and valid until the runtime is next used. Call FlushAll first.
func (r *Runtime) DumpObject(name string) ([]byte, error) {
	o, ok := r.objs[name]
	if !ok {
		return nil, fmt.Errorf("aifm: unknown object %q", name)
	}
	return r.pool.View(o.farBase, int(o.decl.SizeBytes()))
}

// Access dereferences one remotable object (element) and copies the field
// bytes. Every access pays the dereference cost; misses fetch the whole
// element.
func (r *Runtime) Access(clk *sim.Clock, name string, elem int64, field ir.Field, buf []byte, write bool, _ rt.AccessOpts) error {
	o, ok := r.objs[name]
	if !ok {
		return fmt.Errorf("aifm: access to unknown object %q", name)
	}
	if elem < 0 || elem >= o.decl.Count {
		return fmt.Errorf("aifm: %q[%d] out of range", name, elem)
	}
	r.derefs++
	// Take the shared cache lock for the dereference; a concurrent
	// thread's dereference (or in-progress miss) pushes the acquisition
	// instant forward.
	clk.AdvanceTo(r.lock.Acquire(clk.Now(), derefCost))
	clk.Advance(derefCost)
	e, err := r.deref(clk, o, elem/o.chunkElems)
	if err != nil {
		return err
	}
	off := (elem%o.chunkElems)*int64(o.decl.ElemBytes) + int64(field.Offset)
	if len(buf) > field.Bytes {
		buf = buf[:field.Bytes]
	}
	if write {
		copy(e.data[off:], buf)
		e.dirty = true
	} else {
		copy(buf, e.data[off:])
	}
	return nil
}

// chunkSize is the byte size of chunk c (the last chunk may be short).
func (o *objState) chunkSize(c int64) int64 {
	elems := o.chunkElems
	if last := o.decl.Count - c*o.chunkElems; last < elems {
		elems = last
	}
	return elems * int64(o.decl.ElemBytes)
}

// deref resolves (obj, chunk) to a cached remotable object, fetching on
// miss.
func (r *Runtime) deref(clk *sim.Clock, o *objState, chunk int64) (*entry, error) {
	if e := o.table[chunk]; e != nil {
		r.hits++
		if r.lru.next != e {
			e.unlink()
			r.pushFront(e)
		}
		return e, nil
	}
	r.misses++
	size := o.chunkSize(chunk)
	for r.used+size > r.cap {
		if err := r.evictOne(clk); err != nil {
			return nil, err
		}
	}
	// AIFM moves objects in messages handled by a remote agent:
	// two-sided.
	r.addr1[0], r.size1[0] = o.farAddr(chunk), int(size)
	data, done, err := r.tr.GatherTwoSided(clk.Now(), r.addr1[:], r.size1[:])
	if err != nil {
		return nil, err
	}
	e := o.class.free
	if e != nil {
		o.class.free, e.next = e.next, nil
	} else {
		e = &entry{data: make([]byte, o.class.unit)}
	}
	e.obj, e.chunk, e.data, e.dirty = o, chunk, e.data[:size], false
	copy(e.data, data)
	clk.AdvanceTo(done)
	// The miss extended the critical section past the dereference hold:
	// keep the cache lock busy until the fetch completed, so concurrent
	// dereferences queue behind it.
	r.lock.Acquire(done, 0)
	o.table[chunk] = e
	o.cached++
	r.pushFront(e)
	r.used += size
	return e, nil
}

// evictOne swaps out the LRU element.
func (r *Runtime) evictOne(clk *sim.Clock) error {
	e := r.lru.prev
	if e == &r.lru {
		return fmt.Errorf("aifm: cache exhausted with nothing to evict")
	}
	r.evictions++
	r.drop(e) // only recycles e at the next miss: its bytes outlive the write-back
	if e.dirty {
		r.writebacks++
		_, err := r.writeBack(clk.Now(), e)
		return err
	}
	return nil
}

// Prefetch is a no-op: AIFM has no program knowledge to prefetch with.
func (r *Runtime) Prefetch(*sim.Clock, string, int64, ir.Field) error { return nil }

// PrefetchBatch is a no-op (no cross-call batching, §6.2 Fig. 23).
func (r *Runtime) PrefetchBatch(*sim.Clock, []rt.BatchEntry) error { return nil }

// EvictHint is a no-op: eviction is purely LRU.
func (r *Runtime) EvictHint(*sim.Clock, string, int64) error { return nil }

// Fence is a no-op: all AIFM operations here are synchronous.
func (r *Runtime) Fence(*sim.Clock) {}

// Release is a no-op: AIFM has no lifetime knowledge — eviction is LRU
// only, which is exactly the paper's contrast with Mira's
// compiler-directed lifetimes.
func (r *Runtime) Release(*sim.Clock, string) error { return nil }

// BulkRead loops element-wise — every element pays a dereference, the
// behavior behind AIFM's array-library overhead (Fig. 18, 19).
func (r *Runtime) BulkRead(clk *sim.Clock, name string, elem int64, buf []byte) error {
	return r.bulk(clk, name, elem, buf, false)
}

// BulkWrite loops element-wise.
func (r *Runtime) BulkWrite(clk *sim.Clock, name string, elem int64, buf []byte) error {
	return r.bulk(clk, name, elem, buf, true)
}

func (r *Runtime) bulk(clk *sim.Clock, name string, elem int64, buf []byte, write bool) error {
	o, ok := r.objs[name]
	if !ok {
		return fmt.Errorf("aifm: bulk access to unknown object %q", name)
	}
	eb := o.decl.ElemBytes
	if len(buf)%eb != 0 {
		return fmt.Errorf("aifm: bulk access of %d bytes not element-aligned (%d)", len(buf), eb)
	}
	whole := ir.Field{Offset: 0, Bytes: eb, Float: o.decl.Float}
	for off := 0; off < len(buf); off += eb {
		if err := r.Access(clk, name, elem+int64(off/eb), whole, buf[off:off+eb], write, rt.AccessOpts{}); err != nil {
			return err
		}
	}
	return nil
}

// FlushObject writes back and drops every cached element of the object,
// in element order.
func (r *Runtime) FlushObject(clk *sim.Clock, name string) error {
	o, ok := r.objs[name]
	if !ok {
		return nil
	}
	for c := 0; o.cached > 0; c++ {
		e := o.table[c]
		if e == nil {
			continue
		}
		if e.dirty {
			done, err := r.writeBack(clk.Now(), e)
			if err != nil {
				return err
			}
			clk.AdvanceTo(done)
			r.writebacks++
		}
		r.drop(e)
	}
	return nil
}

// FlushAll flushes every object (end of run, before DumpObject).
func (r *Runtime) FlushAll(clk *sim.Clock) error {
	names := make([]string, 0, len(r.objs))
	for name := range r.objs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := r.FlushObject(clk, name); err != nil {
			return err
		}
	}
	// Degraded-mode write-backs queued in the transport must land before
	// DumpObject reads far memory directly.
	done, err := r.tr.Flush(clk.Now())
	if err != nil {
		return err
	}
	clk.AdvanceTo(done)
	return nil
}

// Pool exposes the far-node pool the remotable objects live on.
func (r *Runtime) Pool() *cluster.Pool { return r.pool }

// MissCount reports cumulative misses (the profiler's per-access probe).
func (r *Runtime) MissCount() int64 { return r.misses }

// Stats reports dereference counters.
func (r *Runtime) Stats() (derefs, hits, misses, evictions, writebacks int64) {
	return r.derefs, r.hits, r.misses, r.evictions, r.writebacks
}
