package aifm

import (
	"bytes"
	"container/list"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"mira/internal/exec"
	"mira/internal/ir"
	"mira/internal/rt"
	"mira/internal/sim"
	"mira/internal/workload"
)

// refRuntime is the object cache the runtime had before the per-object
// table, kept as the oracle: a map keyed by (object name, chunk) over a
// container/list LRU, a fresh entry and buffer per miss, fresh one-element
// vectors per gather and scatter. The embedded Runtime supplies the far
// node, the transport, the objects, the budget and the counters; its own
// cache stays empty.
type refRuntime struct {
	*Runtime
	entries map[refKey]*list.Element
	lru     *list.List // front = most recent
}

type refKey struct {
	obj  string
	elem int64
}

type refEntry struct {
	key   refKey
	data  []byte
	dirty bool
}

func newRef(w workload.Workload, opts Options) (*refRuntime, error) {
	r, err := New(w, opts)
	if err != nil {
		return nil, err
	}
	return &refRuntime{Runtime: r, entries: map[refKey]*list.Element{}, lru: list.New()}, nil
}

func (r *refRuntime) Access(clk *sim.Clock, name string, elem int64, field ir.Field, buf []byte, write bool, _ rt.AccessOpts) error {
	o, ok := r.objs[name]
	if !ok {
		return fmt.Errorf("aifm: access to unknown object %q", name)
	}
	if elem < 0 || elem >= o.decl.Count {
		return fmt.Errorf("aifm: %q[%d] out of range", name, elem)
	}
	r.derefs++
	clk.AdvanceTo(r.lock.Acquire(clk.Now(), r.opts.DerefCost))
	clk.Advance(r.opts.DerefCost)
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

func (r *refRuntime) deref(clk *sim.Clock, o *objState, chunk int64) (*refEntry, error) {
	key := refKey{obj: o.decl.Name, elem: chunk}
	if el, ok := r.entries[key]; ok {
		r.hits++
		r.lru.MoveToFront(el)
		return el.Value.(*refEntry), nil
	}
	r.misses++
	size := o.chunkSize(chunk)
	for r.used+size > r.cap {
		if err := r.evictOne(clk); err != nil {
			return nil, err
		}
	}
	e := &refEntry{key: key, data: make([]byte, size)}
	addr := o.farBase + uint64(chunk)*uint64(o.chunkElems)*uint64(o.decl.ElemBytes)
	data, done, err := r.tr.GatherTwoSided(clk.Now(), []uint64{addr}, []int{int(size)})
	if err != nil {
		return nil, err
	}
	copy(e.data, data)
	clk.AdvanceTo(done)
	r.lock.Acquire(done, 0)
	r.entries[key] = r.lru.PushFront(e)
	r.used += size
	return e, nil
}

func (r *refRuntime) evictOne(clk *sim.Clock) error {
	el := r.lru.Back()
	if el == nil {
		return fmt.Errorf("aifm: cache exhausted with nothing to evict")
	}
	e := el.Value.(*refEntry)
	r.lru.Remove(el)
	delete(r.entries, e.key)
	r.used -= int64(len(e.data))
	r.evictions++
	if e.dirty {
		r.writebacks++
		o := r.objs[e.key.obj]
		addr := o.farBase + uint64(e.key.elem)*uint64(o.chunkElems)*uint64(o.decl.ElemBytes)
		if _, err := r.tr.ScatterTwoSided(clk.Now(), []uint64{addr}, [][]byte{e.data}); err != nil {
			return err
		}
	}
	return nil
}

func (r *refRuntime) FlushObject(clk *sim.Clock, name string) error {
	var keys []refKey
	for k := range r.entries {
		if k.obj == name {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].elem < keys[j].elem })
	for _, k := range keys {
		el := r.entries[k]
		e := el.Value.(*refEntry)
		if e.dirty {
			o := r.objs[k.obj]
			addr := o.farBase + uint64(k.elem)*uint64(o.chunkElems)*uint64(o.decl.ElemBytes)
			done, err := r.tr.ScatterTwoSided(clk.Now(), []uint64{addr}, [][]byte{e.data})
			if err != nil {
				return err
			}
			clk.AdvanceTo(done)
			r.writebacks++
		}
		r.lru.Remove(el)
		delete(r.entries, k)
		r.used -= int64(len(e.data))
	}
	return nil
}

func (r *refRuntime) FlushAll(clk *sim.Clock) error {
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
	done, err := r.tr.Flush(clk.Now())
	if err != nil {
		return err
	}
	clk.AdvanceTo(done)
	return nil
}

// streamWorkload is a few far arrays of differing element size with seeded
// contents.
type streamWorkload struct {
	prog *ir.Program
	data map[string][]byte
}

func newStream(rng *rand.Rand) *streamWorkload {
	b := ir.NewBuilder("stream")
	w := &streamWorkload{data: map[string][]byte{}}
	for i := 0; i < 1+rng.Intn(3); i++ {
		name := fmt.Sprintf("o%d", i)
		eb := 8 * (1 + rng.Intn(4))
		count := int64(24 + rng.Intn(200))
		b.Object(name, eb, count)
		w.data[name] = make([]byte, int64(eb)*count)
		rng.Read(w.data[name])
	}
	b.Func("main")
	w.prog = b.MustProgram()
	return w
}

func (w *streamWorkload) Name() string                  { return "stream" }
func (w *streamWorkload) Program() *ir.Program          { return w.prog }
func (w *streamWorkload) Params() map[string]exec.Value { return nil }
func (w *streamWorkload) FullMemoryBytes() (n int64) {
	for _, d := range w.data {
		n += int64(len(d))
	}
	return n
}
func (w *streamWorkload) Init(t workload.ObjectIniter) error {
	for _, o := range w.prog.Objects {
		if err := t.InitObject(o.Name, w.data[o.Name]); err != nil {
			return err
		}
	}
	return nil
}

// aifmBackend is what the test drives on both runtimes.
type aifmBackend interface {
	Access(clk *sim.Clock, name string, elem int64, field ir.Field, buf []byte, write bool, _ rt.AccessOpts) error
	FlushObject(clk *sim.Clock, name string) error
	FlushAll(clk *sim.Clock) error
	DumpObject(name string) ([]byte, error)
	Stats() (derefs, hits, misses, evictions, writebacks int64)
}

// TestCacheMatchesReference drives the table-indexed cache and the map it
// replaced with the same seeded access streams — hot sets that hit, sweeps
// that miss and evict, writes that force write-backs, object flushes
// mid-stream, element-per-object and chunked granularity — and holds every
// read, the clock after every call, every counter and the final dumps
// equal.
func TestCacheMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w := newStream(rng)
		var opts Options
		if rng.Intn(2) == 0 {
			opts.ChunkBytes = int64(32 << rng.Intn(3))
		}
		// Metadata plus room for a third to a tenth of the data.
		opts.LocalBudget = w.FullMemoryBytes()/int64(3+rng.Intn(8)) + 128
		for _, o := range w.prog.Objects {
			per := max(opts.ChunkBytes/int64(o.ElemBytes), 1)
			opts.LocalBudget += 8 * ((o.Count + per - 1) / per)
		}
		got, err := New(w, opts)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want, err := newRef(w, opts)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		sides := []aifmBackend{got, want}
		clks := []*sim.Clock{sim.NewClock(0), sim.NewClock(0)}
		objs := w.prog.Objects
		hot := rng.Int63n(16)
		for step := 0; step < 2000; step++ {
			o := objs[rng.Intn(len(objs))]
			var elem int64
			switch rng.Intn(3) {
			case 0: // hot set: hits
				elem = (hot + rng.Int63n(8)) % o.Count
			case 1: // sweep: misses and evictions
				elem = int64(step) % o.Count
			default:
				elem = rng.Int63n(o.Count)
			}
			f := ir.Field{Offset: 8 * rng.Intn(o.ElemBytes/8), Bytes: 8}
			write := rng.Intn(3) == 0
			var val [8]byte
			rng.Read(val[:])
			flush := rng.Intn(400) == 0
			var bufs [2][8]byte
			for i, side := range sides {
				bufs[i] = val
				if err := side.Access(clks[i], o.Name, elem, f, bufs[i][:], write, rt.AccessOpts{}); err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
				if flush {
					if err := side.FlushObject(clks[i], o.Name); err != nil {
						t.Fatalf("seed %d step %d: flush: %v", seed, step, err)
					}
				}
			}
			if bufs[0] != bufs[1] || clks[0].Now() != clks[1].Now() {
				t.Fatalf("seed %d step %d: %s[%d] read %v at %v, reference %v at %v",
					seed, step, o.Name, elem, bufs[0], clks[0].Now(), bufs[1], clks[1].Now())
			}
		}
		for i, side := range sides {
			if err := side.FlushAll(clks[i]); err != nil {
				t.Fatalf("seed %d: FlushAll: %v", seed, err)
			}
		}
		if clks[0].Now() != clks[1].Now() {
			t.Fatalf("seed %d: finished at %v, reference %v", seed, clks[0].Now(), clks[1].Now())
		}
		var stats [2][5]int64
		for i, side := range sides {
			d, h, m, e, wb := side.Stats()
			stats[i] = [5]int64{d, h, m, e, wb}
		}
		if stats[0] != stats[1] || got.NetStats() != want.NetStats() {
			t.Fatalf("seed %d: derefs/hits/misses/evictions/writebacks %v, reference %v (net %+v vs %+v)",
				seed, stats[0], stats[1], got.NetStats(), want.NetStats())
		}
		if stats[0][3] == 0 || stats[0][1] == 0 {
			t.Fatalf("seed %d: stream made %d hits and %d evictions; it must make both", seed, stats[0][1], stats[0][3])
		}
		if got.used != 0 || want.used != 0 {
			t.Fatalf("seed %d: %d / %d bytes still on the budget after FlushAll", seed, got.used, want.used)
		}
		for _, o := range objs {
			a, err := got.DumpObject(o.Name)
			if err != nil {
				t.Fatal(err)
			}
			b, err := want.DumpObject(o.Name)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Fatalf("seed %d: dump of %s differs from the reference", seed, o.Name)
			}
		}
	}
}
