package offload

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"mira/internal/cluster"
	"mira/internal/codec"
	"mira/internal/ir"
	"mira/internal/netmodel"
	"mira/internal/sim"
)

// refEnv is the staging NodeEnv had before extents, kept as the oracle: one
// heap copy per store in a map keyed by the store's exact start address,
// and a read served from staging only on an exact-address hit. The embedded
// NodeEnv supplies what never depended on staging (localBase, checkLost).
type refEnv struct {
	*NodeEnv
	staged map[uint64][]byte
}

func (env *refEnv) Access(clk *sim.Clock, name string, elem int64, field ir.Field, buf []byte, write bool) error {
	base, elemBytes, count, ok := env.eng.res.ObjectExtent(name)
	if !ok {
		return fmt.Errorf("offload: access to unknown or local object %q", name)
	}
	if elem < 0 || elem >= count {
		return fmt.Errorf("offload: %s[%d] out of range (count %d)", name, elem, count)
	}
	if len(buf) > field.Bytes {
		buf = buf[:field.Bytes]
	}
	addr := base + uint64(elem)*uint64(elemBytes) + uint64(field.Offset)
	if write {
		cp := make([]byte, len(buf))
		copy(cp, buf)
		env.staged[addr] = cp
		clk.Advance(env.eng.cfg.LocalCost)
		return nil
	}
	if st, okSt := env.staged[addr]; okSt && len(st) >= len(buf) {
		copy(buf, st)
		clk.Advance(env.eng.cfg.LocalCost)
		return nil
	}
	if lbase, okLocal := env.localBase(addr, len(buf)); okLocal {
		if env.checkLost(clk.Now()) {
			return ErrNodeLost
		}
		if err := env.eng.pool.FarNode(env.node).Read(lbase, buf); err != nil {
			return err
		}
		clk.Advance(env.eng.cfg.LocalCost)
		if env.checkLost(clk.Now()) {
			return ErrNodeLost
		}
		return nil
	}
	if env.checkLost(clk.Now()) {
		return ErrNodeLost
	}
	if err := env.eng.pool.Read(addr, buf); err != nil {
		return err
	}
	clk.Advance(env.eng.cfg.Net.OneSidedCost(len(buf)))
	env.remoteWire += int64(len(buf))
	if env.checkLost(clk.Now()) {
		return ErrNodeLost
	}
	return nil
}

type refExtent struct {
	addr uint64
	data []byte
}

// refCommit is the commit that went with the map: pour every sub's map
// into one, sort the keys, coalesce, group by serving node, stream, write.
func refCommit(e *Engine, clk *sim.Clock, done []*refEnv, table []cluster.PlacementEntry) (int64, []refExtent, error) {
	merged := map[uint64][]byte{}
	for _, env := range done {
		for a, b := range env.staged {
			merged[a] = b
		}
	}
	if len(merged) == 0 {
		return 0, nil, nil
	}
	addrs := make([]uint64, 0, len(merged))
	for a := range merged {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })

	var exts []refExtent
	for _, a := range addrs {
		b := merged[a]
		if n := len(exts); n > 0 && exts[n-1].addr+uint64(len(exts[n-1].data)) == a {
			exts[n-1].data = append(exts[n-1].data, b...)
			continue
		}
		exts = append(exts, refExtent{addr: a, data: append([]byte(nil), b...)})
	}

	now := clk.Now()
	perNode := map[int][]refExtent{}
	var nodes []int
	for _, x := range exts {
		n := e.servingNode(x.addr, now, table)
		if _, ok := perNode[n]; !ok {
			nodes = append(nodes, n)
		}
		perNode[n] = append(perNode[n], x)
	}
	sort.Ints(nodes)

	chunk := e.Chunk()
	id := e.pool.WireCodec()
	cm := codec.DefaultCostModel()
	var totalWire int64
	for _, n := range nodes {
		wire := 0
		for _, x := range perNode[n] {
			for off := 0; off < len(x.data); off += chunk {
				end := off + chunk
				if end > len(x.data) {
					end = len(x.data)
				}
				piece := x.data[off:end]
				wire += codec.EncodedLen(id, piece)
				if id != codec.None {
					clk.Advance(cm.EncodeCost(len(piece)))
				}
			}
		}
		bw := e.pool.Transport(n).BW
		clk.AdvanceTo(netmodel.StreamCost(e.cfg.Net, bw, clk.Now(), wire, chunk))
		totalWire += int64(wire)
	}
	for _, x := range exts {
		if err := e.pool.Write(x.addr, x.data); err != nil {
			return totalWire, exts, err
		}
	}
	return totalWire, exts, nil
}

// testObject is one far object of a generated schedule and its Resolver row.
type testObject struct {
	name      string
	base      uint64
	elemBytes int
	count     int64
	fields    []ir.Field
}

type testResolver []testObject

func (r testResolver) ObjectExtent(name string) (uint64, int, int64, bool) {
	for _, o := range r {
		if o.name == name {
			return o.base, o.elemBytes, o.count, true
		}
	}
	return 0, 0, 0, false
}

// newTestEngine builds a pool and an engine over objs (bases assigned here)
// and loads every object with image. Same arguments, same placement table.
func newTestEngine(t testing.TB, co cluster.Options, cfg Config, objs []testObject, image [][]byte) (*Engine, testResolver) {
	t.Helper()
	pool, err := cluster.New(co)
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	t.Cleanup(pool.Release)
	res := append(testResolver(nil), objs...)
	for i := range res {
		size := uint64(res[i].elemBytes) * uint64(res[i].count)
		if res[i].base, err = pool.Alloc(size); err != nil {
			t.Fatalf("Alloc: %v", err)
		}
		if err := pool.Write(res[i].base, image[i]); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	return NewEngine(pool, res, cfg), res
}

func sortedTable(e *Engine) []cluster.PlacementEntry {
	table := e.pool.Table()
	sort.Slice(table, func(i, j int) bool { return table[i].VBase < table[j].VBase })
	return table
}

// stagingOp is one IR-shaped access of a generated schedule: a field of an
// element, always at the field's own size.
type stagingOp struct {
	obj   int
	elem  int64
	field ir.Field
	write bool
	val   []byte
}

// genStruct draws a struct of 1–3 fields of 4 or 8 bytes, some with padding
// between them, and returns the fields and the element size.
func genStruct(rng *rand.Rand) ([]ir.Field, int) {
	var fields []ir.Field
	off := 0
	for n := 1 + rng.Intn(3); n > 0; n-- {
		b := 4 << rng.Intn(2)
		fields = append(fields, ir.Field{Name: fmt.Sprintf("f%d", len(fields)), Offset: off, Bytes: b})
		off += b
		if rng.Intn(3) == 0 {
			off += 4
		}
	}
	return fields, off
}

// genOps draws one sub's accesses over the elements of ranges: per element,
// in ascending, descending or random element order, stores to its own
// element's fields (some re-stored), reads of those fields before and after,
// and stray reads anywhere in any object.
func genOps(rng *rand.Rand, objs []testObject, ranges [][2]int64) []stagingOp {
	var elems []int64
	for _, r := range ranges {
		for el := r[0]; el < r[1]; el++ {
			elems = append(elems, el)
		}
	}
	switch rng.Intn(3) {
	case 1:
		for i, j := 0, len(elems)-1; i < j; i, j = i+1, j-1 {
			elems[i], elems[j] = elems[j], elems[i]
		}
	case 2:
		rng.Shuffle(len(elems), func(i, j int) { elems[i], elems[j] = elems[j], elems[i] })
	}
	value := func(n int) []byte {
		b := make([]byte, n)
		if rng.Intn(2) == 0 { // compressible: the wire codec has to see runs
			c := byte(rng.Intn(2))
			for i := range b {
				b[i] = c
			}
		} else {
			rng.Read(b)
		}
		return b
	}
	var ops []stagingOp
	for _, el := range elems {
		for oi, o := range objs {
			if el >= o.count || (oi > 0 && rng.Intn(2) == 0) {
				continue
			}
			for _, fi := range rng.Perm(len(o.fields)) {
				f := o.fields[fi]
				if rng.Intn(3) == 0 {
					ops = append(ops, stagingOp{obj: oi, elem: el, field: f})
				}
				if rng.Intn(5) == 0 {
					continue
				}
				ops = append(ops, stagingOp{obj: oi, elem: el, field: f, write: true, val: value(f.Bytes)})
				if rng.Intn(4) == 0 {
					ops = append(ops, stagingOp{obj: oi, elem: el, field: f, write: true, val: value(f.Bytes)})
				}
				if rng.Intn(2) == 0 {
					ops = append(ops, stagingOp{obj: oi, elem: el, field: f})
				}
			}
		}
		if rng.Intn(3) == 0 {
			oi := rng.Intn(len(objs))
			o := objs[oi]
			ops = append(ops, stagingOp{obj: oi, elem: rng.Int63n(o.count), field: o.fields[rng.Intn(len(o.fields))]})
		}
	}
	return ops
}

// accessor is what both stagings answer to.
type accessor interface {
	Access(clk *sim.Clock, name string, elem int64, field ir.Field, buf []byte, write bool) error
}

// play runs ops against env and returns every read's bytes, concatenated.
func play(t *testing.T, env accessor, clk *sim.Clock, objs []testObject, ops []stagingOp) []byte {
	t.Helper()
	var reads []byte
	var buf [8]byte
	for _, op := range ops {
		b := buf[:op.field.Bytes]
		if op.write {
			copy(b, op.val)
		}
		if err := env.Access(clk, objs[op.obj].name, op.elem, op.field, b, op.write); err != nil {
			t.Fatalf("access %+v: %v", op, err)
		}
		if !op.write {
			reads = append(reads, b...)
		}
	}
	return reads
}

// TestStagingMatchesReference drives the extent staging and the map it
// replaced with the same seeded schedules — 1–4 subs, multi-field structs,
// ascending / descending / random element order, re-stores, interleaved
// reads, one sub lost mid-run and re-dispatched — and holds every
// observable equal: read results, sub clocks, the committed extents and
// their order, the commit's wire bytes and finish time, and far memory
// afterwards (which must also be the flat model's).
func TestStagingMatchesReference(t *testing.T) {
	schedules := 1200
	if testing.Short() {
		schedules = 200
	}
	for seed := 0; seed < schedules; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		co := cluster.Options{
			Nodes:       1 + rng.Intn(4),
			Replicas:    1 + rng.Intn(2),
			Seed:        uint64(seed),
			StripeBytes: uint64(8 * (8 + rng.Intn(57))),
		}
		cfg := Config{Net: netmodel.DefaultConfig(), Chunk: 32 << rng.Intn(4), LocalCost: 100}
		count := int64(16 + rng.Intn(113))
		var objs []testObject
		var image [][]byte
		for i := 0; i < 1+rng.Intn(2); i++ {
			fields, eb := genStruct(rng)
			objs = append(objs, testObject{name: fmt.Sprintf("o%d", i), elemBytes: eb, count: count - int64(i*rng.Intn(8)), fields: fields})
			img := make([]byte, int64(eb)*objs[i].count)
			rng.Read(img)
			image = append(image, img)
		}
		eNew, res := newTestEngine(t, co, cfg, objs, image)
		eRef, _ := newTestEngine(t, co, cfg, objs, image)
		if rng.Intn(2) == 0 {
			eNew.pool.SetWireCodec(codec.ByteRun)
			eRef.pool.SetWireCodec(codec.ByteRun)
		}
		table := sortedTable(eNew)

		subs, err := eNew.partition(res[0].base, res[0].elemBytes, [][2]int64{{0, res[0].count}}, 0, table)
		if err != nil {
			t.Fatalf("seed %d: partition: %v", seed, err)
		}
		lostSub := -1
		if rng.Intn(3) == 0 {
			lostSub = rng.Intn(len(subs))
		}

		model := make([][]byte, len(image))
		for i := range image {
			model[i] = append([]byte(nil), image[i]...)
		}
		var doneNew []*sub
		var doneRef []*refEnv
		run := func(node int, ops []stagingOp, commit bool) {
			envNew := &NodeEnv{eng: eNew, node: node, table: table}
			envRef := &refEnv{NodeEnv: &NodeEnv{eng: eRef, node: node, table: table}, staged: map[uint64][]byte{}}
			clkNew, clkRef := sim.NewClock(0), sim.NewClock(0)
			got := play(t, envNew, clkNew, res, ops)
			want := play(t, envRef, clkRef, res, ops)
			if !bytes.Equal(got, want) {
				t.Fatalf("seed %d node %d: reads differ from the reference staging", seed, node)
			}
			if clkNew.Now() != clkRef.Now() || envNew.remoteWire != envRef.remoteWire {
				t.Fatalf("seed %d node %d: clock %v / remote wire %d, reference %v / %d",
					seed, node, clkNew.Now(), envNew.remoteWire, clkRef.Now(), envRef.remoteWire)
			}
			if !commit {
				return // lost: both stagings are dropped with their envs
			}
			doneNew = append(doneNew, &sub{node: node, env: envNew})
			doneRef = append(doneRef, envRef)
			for _, op := range ops {
				if op.write {
					copy(model[op.obj][op.elem*int64(res[op.obj].elemBytes)+int64(op.field.Offset):], op.val)
				}
			}
		}
		var redo []stagingOp
		for i, sb := range subs {
			ops := genOps(rng, res, sb.ranges)
			if i == lostSub {
				run(sb.node, ops[:rng.Intn(len(ops)+1)], false)
				redo = ops
				continue
			}
			run(sb.node, ops, true)
		}
		if lostSub >= 0 { // re-dispatched whole, to any node, in a later round
			run(rng.Intn(co.Nodes), redo, true)
		}

		clkNew, clkRef := sim.NewClock(1000), sim.NewClock(1000)
		wireNew, err := eNew.commit(clkNew, doneNew, table)
		if err != nil {
			t.Fatalf("seed %d: commit: %v", seed, err)
		}
		wireRef, extsRef, err := refCommit(eRef, clkRef, doneRef, table)
		if err != nil {
			t.Fatalf("seed %d: reference commit: %v", seed, err)
		}
		if wireNew != wireRef || clkNew.Now() != clkRef.Now() {
			t.Fatalf("seed %d: commit wire %d at %v, reference %d at %v", seed, wireNew, clkNew.Now(), wireRef, clkRef.Now())
		}
		extsNew := eNew.merger.out
		if len(extsNew) != len(extsRef) {
			t.Fatalf("seed %d: %d committed extents, reference %d", seed, len(extsNew), len(extsRef))
		}
		for i, x := range extsNew {
			if x.addr != extsRef[i].addr || !bytes.Equal(x.data, extsRef[i].data) {
				t.Fatalf("seed %d: extent %d is [%#x,+%d), reference [%#x,+%d) (or bytes differ)",
					seed, i, x.addr, len(x.data), extsRef[i].addr, len(extsRef[i].data))
			}
		}
		for i, o := range res {
			gotNew, gotRef := make([]byte, len(model[i])), make([]byte, len(model[i]))
			if err := eNew.pool.Read(o.base, gotNew); err != nil {
				t.Fatal(err)
			}
			if err := eRef.pool.Read(o.base, gotRef); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotNew, gotRef) || !bytes.Equal(gotNew, model[i]) {
				t.Fatalf("seed %d: far memory of %s differs after commit (reference equal: %v, model equal: %v)",
					seed, o.name, bytes.Equal(gotNew, gotRef), bytes.Equal(gotNew, model[i]))
			}
		}
		eNew.pool.Release()
		eRef.pool.Release()
	}
}

// TestReadYourWritesByByteRange: a read is patched with every staged byte
// it overlaps, wherever the store that staged it started. (The map staging
// answered both reads below from far memory alone.)
func TestReadYourWritesByByteRange(t *testing.T) {
	objs := []testObject{{name: "o", elemBytes: 16, count: 64, fields: []ir.Field{{Name: "whole", Bytes: 16}}}}
	image := [][]byte{bytes.Repeat([]byte{0xEE}, 16*64)}
	co := cluster.Options{Nodes: 2, Replicas: 2, Seed: 1, StripeBytes: 256}
	eng, res := newTestEngine(t, co, Config{Net: netmodel.DefaultConfig(), LocalCost: 100}, objs, image)

	var got4, gotWhole, gotFar []byte
	run := func(clk *sim.Clock, yield func(), ranges [][2]int64, env *NodeEnv) (Scalar, error) {
		el := ranges[0][0]
		access := func(off, n int, buf []byte, write bool) {
			if err := env.Access(clk, "o", el, ir.Field{Offset: off, Bytes: n}, buf, write); err != nil {
				t.Errorf("access: %v", err)
			}
		}
		// Store 8 B at a, read 4 B at a+4.
		access(0, 8, []byte{1, 2, 3, 4, 5, 6, 7, 8}, true)
		got := make([]byte, 4)
		access(4, 4, got, false)
		got4 = append(got4, got...)
		// Store a second field, read the whole element: staged, far, staged.
		access(12, 4, []byte{9, 10, 11, 12}, true)
		whole := make([]byte, 16)
		access(0, 16, whole, false)
		gotWhole = append(gotWhole, whole...)
		// The far bytes under the stores are untouched until commit.
		far := make([]byte, 16)
		if err := eng.pool.Read(res[0].base+uint64(el)*16, far); err != nil {
			t.Errorf("pool read: %v", err)
		}
		gotFar = append(gotFar, far...)
		return Scalar{}, nil
	}
	if _, handled, err := eng.Execute(sim.NewClock(0), Request{Func: "f", Object: "o", Lo: 3, Hi: 4, ResBytes: 8}, run); err != nil || !handled {
		t.Fatalf("Execute: handled=%v err=%v", handled, err)
	}
	if want := []byte{5, 6, 7, 8}; !bytes.Equal(got4, want) {
		t.Errorf("read 4 B at a+4 after storing 8 B at a: got %v, want %v", got4, want)
	}
	wantWhole := []byte{1, 2, 3, 4, 5, 6, 7, 8, 0xEE, 0xEE, 0xEE, 0xEE, 9, 10, 11, 12}
	if !bytes.Equal(gotWhole, wantWhole) {
		t.Errorf("read of the whole element: got %v, want %v", gotWhole, wantWhole)
	}
	if !bytes.Equal(gotFar, image[0][:16]) {
		t.Errorf("far memory changed before commit: %v", gotFar)
	}
	after := make([]byte, 16)
	if err := eng.pool.Read(res[0].base+3*16, after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, wantWhole) {
		t.Errorf("far memory after commit: got %v, want %v", after, wantWhole)
	}
}

// TestStagingByteRanges holds staging and merge to a flat model under what
// the IR never issues: stores of any size at any offset, overlapping within
// a sub and across subs (the later sub wins), and reads straddling staged
// and unstaged bytes.
func TestStagingByteRanges(t *testing.T) {
	const window = 160
	for seed := int64(0); seed < 500; seed++ {
		rng := rand.New(rand.NewSource(seed))
		far := make([]byte, window)
		rng.Read(far)
		want := append([]byte(nil), far...) // far memory after commit
		written := make([]bool, window)
		var done []*sub
		for n := 1 + rng.Intn(3); n > 0; n-- {
			env := &NodeEnv{}
			view := append([]byte(nil), far...) // what this sub must read
			for ops := rng.Intn(40); ops > 0; ops-- {
				at := rng.Intn(window - 24)
				buf := make([]byte, 1+rng.Intn(24))
				if rng.Intn(3) > 0 {
					rng.Read(buf)
					env.st.store(1000+uint64(at), buf)
					copy(view[at:], buf)
					copy(want[at:], buf)
					for i := range buf {
						written[at+i] = true
					}
					continue
				}
				copy(buf, far[at:])
				env.st.overlay(1000+uint64(at), buf)
				if !bytes.Equal(buf, view[at:at+len(buf)]) {
					t.Fatalf("seed %d: read [%d,+%d) got %v, want %v", seed, at, len(buf), buf, view[at:at+len(buf)])
				}
			}
			for i, x := range env.st.exts {
				if x.n <= 0 || (i > 0 && env.st.exts[i-1].end() > x.addr) {
					t.Fatalf("seed %d: extents not ascending and disjoint: %+v", seed, env.st.exts)
				}
			}
			done = append(done, &sub{env: env})
		}
		var m merger
		got := append([]byte(nil), far...)
		covered := make([]bool, window)
		var prevEnd uint64
		for _, c := range m.merge(done) {
			if c.addr <= prevEnd || len(c.data) != c.n {
				t.Fatalf("seed %d: extent [%#x,+%d) with %d bytes after one ending at %#x", seed, c.addr, c.n, len(c.data), prevEnd)
			}
			prevEnd = c.end()
			copy(got[c.addr-1000:], c.data)
			for i := range c.data {
				covered[int(c.addr-1000)+i] = true
			}
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("seed %d: merged extents do not commit the model's bytes", seed)
		}
		for i := range covered {
			if covered[i] != written[i] {
				t.Fatalf("seed %d: byte %d committed=%v, stored=%v", seed, i, covered[i], written[i])
			}
		}
	}
}

var benchPartials []Scalar

// BenchmarkExecute is one dense map-shaped offload (read in[i], store
// out[i]) of 16 Ki elements over a 4-node, R=2 pool: partition, four subs,
// staging, commit.
func BenchmarkExecute(b *testing.B) {
	const n = 1 << 14
	f := ir.Field{Name: "v", Bytes: 8}
	objs := []testObject{
		{name: "in", elemBytes: 8, count: n, fields: []ir.Field{f}},
		{name: "out", elemBytes: 8, count: n, fields: []ir.Field{f}},
	}
	image := [][]byte{make([]byte, 8*n), make([]byte, 8*n)}
	rand.New(rand.NewSource(1)).Read(image[0])
	co := cluster.Options{Nodes: 4, Replicas: 2, Seed: 1, StripeBytes: 16 << 10}
	eng, _ := newTestEngine(b, co, Config{Net: netmodel.DefaultConfig(), LocalCost: 100}, objs, image)
	run := func(clk *sim.Clock, yield func(), ranges [][2]int64, env *NodeEnv) (Scalar, error) {
		var buf [8]byte
		var sum int64
		for _, r := range ranges {
			for el := r[0]; el < r[1]; el++ {
				if err := env.Access(clk, "in", el, f, buf[:], false); err != nil {
					return Scalar{}, err
				}
				sum += int64(buf[0])
				if err := env.Access(clk, "out", el, f, buf[:], true); err != nil {
					return Scalar{}, err
				}
			}
			yield()
		}
		return Scalar{I: sum}, nil
	}
	req := Request{Func: "map", Object: "out", Lo: 0, Hi: n, ArgBytes: 24, ResBytes: 8}
	clk := sim.NewClock(0)
	b.ReportAllocs()
	b.SetBytes(8 * n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		partials, handled, err := eng.Execute(clk, req, run)
		if err != nil || !handled {
			b.Fatalf("Execute: handled=%v err=%v", handled, err)
		}
		benchPartials = partials
	}
}
