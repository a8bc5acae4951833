// Package offload is the scatter-gather offload engine (§4.8 scaled out to
// the cluster): one offloaded function call is split into per-node
// sub-offloads that each run against the stripe replicas their serving node
// already owns, executed as deterministic sim.Scheduler threads so offload
// compute participates in virtual time alongside everything else.
//
// The engine owns routing (placement-table partitioning), operand/result
// transfer (bounded chunk streams priced by netmodel.Bandwidth), fault
// tolerance (a sub-offload whose node crash-wipes mid-run is re-dispatched
// to a surviving replica), and the idempotence rule that makes re-dispatch
// byte-identical: sub-offloads never write far memory directly — stores are
// staged per sub and committed by one fenced write-back after every sub
// finished, so a lost sub's partial writes simply never happen.
//
// The engine deliberately knows nothing about the IR executor: the caller
// supplies a Runner callback that executes the assigned index ranges
// against a NodeEnv. That keeps the dependency arrow pointing one way
// (exec -> offload) while the runtime only constructs and wires the engine.
package offload

import (
	"errors"
	"fmt"
	"sort"
	"strconv"

	"mira/internal/cluster"
	"mira/internal/codec"
	"mira/internal/ir"
	"mira/internal/netmodel"
	"mira/internal/sim"
	"mira/internal/trace"
)

// ErrNodeLost is returned by NodeEnv accesses (and may be returned by a
// Runner) when the serving node crashed or lost its memory mid-run. The
// engine treats it as re-dispatchable, not fatal.
var ErrNodeLost = errors.New("offload: serving node lost")

// Scalar is a runner result value: one partial accumulator.
type Scalar struct {
	I     int64
	F     float64
	Float bool
}

// Resolver maps object names to their far-memory extent. The runtime
// implements it; the engine uses it for partitioning and address
// resolution without depending on rt.
type Resolver interface {
	ObjectExtent(name string) (base uint64, elemBytes int, count int64, ok bool)
}

// Config parameterizes the engine.
type Config struct {
	// Net is the interconnect cost model shared with the runtime.
	Net netmodel.Config
	// Chunk is the operand/result/commit streaming chunk size in bytes
	// (<= 0 selects netmodel.DefaultStreamChunk).
	Chunk int
	// LocalCost is the far node's local memory access cost charged per
	// element access a sub-offload serves from its own replica.
	LocalCost sim.Duration
}

// Request describes one offloaded call to scatter.
type Request struct {
	// Func is the offloaded function name (trace labeling only).
	Func string
	// Object is the driving object whose placement partitions the work.
	Object string
	// Lo and Hi bound the driving index range [Lo, Hi).
	Lo, Hi int64
	// ArgBytes and ResBytes size the per-sub dispatch and result streams.
	ArgBytes int
	ResBytes int
}

// Runner executes one sub-offload's index ranges against env, charging
// compute to clk and yielding at access boundaries. It returns the partial
// accumulator, or ErrNodeLost if env detected the serving node dying.
type Runner func(clk *sim.Clock, yield func(), ranges [][2]int64, env *NodeEnv) (Scalar, error)

// Stats counts engine activity (test introspection).
type Stats struct {
	// Offloads counts Execute calls that were handled.
	Offloads int
	// Subs counts sub-offloads dispatched (including re-dispatches).
	Subs int
	// Redispatches counts sub-offloads that were lost and re-planned.
	Redispatches int
}

// Engine is the scatter-gather offload engine. Every runtime constructs one
// over its pool with NewEngine.
type Engine struct {
	pool *cluster.Pool
	res  Resolver
	cfg  Config

	trc    *trace.Buffer
	reg    *trace.Registry
	cOps   []*trace.Counter // by node
	cBytes []*trace.Counter

	// Scratch of partition (lost, load, seen and byNode indexed by node,
	// byNode left zeroed between calls) and of commit.
	lost   []bool
	load   []int
	seen   []bool
	byNode []*sub
	segs   []segment
	whole  [1][2]int64
	merger merger

	stats Stats
}

// NewEngine wires an engine over a pool.
func NewEngine(pool *cluster.Pool, res Resolver, cfg Config) *Engine {
	n := pool.NodeCount()
	return &Engine{pool: pool, res: res, cfg: cfg,
		cOps:   make([]*trace.Counter, n),
		cBytes: make([]*trace.Counter, n),
		lost:   make([]bool, n),
		load:   make([]int, n),
		seen:   make([]bool, n),
		byNode: make([]*sub, n),
	}
}

// SetTrace attaches the tracing layer: offload.dispatch / offload.exec /
// offload.commit spans on the "offload" buffer plus per-node
// offload.ops{node=N} / offload.bytes{node=N} counters.
func (e *Engine) SetTrace(tr *trace.Tracer) {
	if tr == nil {
		return
	}
	e.trc = tr.Buffer("offload")
	e.reg = tr.Registry()
}

// Stats returns a copy of the engine's counters.
func (e *Engine) Stats() Stats { return e.stats }

// Chunk reports the effective streaming chunk size.
func (e *Engine) Chunk() int {
	if e.cfg.Chunk > 0 {
		return e.cfg.Chunk
	}
	return netmodel.DefaultStreamChunk
}

// sub is one per-node sub-offload.
type sub struct {
	node   int
	ranges [][2]int64
	elems  int64

	env    *NodeEnv
	val    Scalar
	lost   bool
	failed error

	start   sim.Time
	dispEnd sim.Time
	end     sim.Time
	wire    int64
}

// Execute scatters req across the cluster and gathers the partial results,
// charging all virtual time to clk. It returns handled=false (and no error)
// when the request cannot be partitioned — unknown object, or no surviving
// placement — in which case the caller should fall back to the legacy
// whole-call RPC path. Partials are ordered by ascending first index, so
// combining them in order is deterministic.
func (e *Engine) Execute(clk *sim.Clock, req Request, run Runner) ([]Scalar, bool, error) {
	base, elemBytes, count, ok := e.res.ObjectExtent(req.Object)
	if !ok || elemBytes <= 0 {
		return nil, false, nil
	}
	lo, hi := req.Lo, req.Hi
	if lo < 0 {
		lo = 0
	}
	if hi > count {
		hi = count
	}
	if lo >= hi {
		e.stats.Offloads++
		return nil, true, nil
	}

	t0 := clk.Now()
	table := e.pool.Table()
	sort.Slice(table, func(i, j int) bool { return table[i].VBase < table[j].VBase })

	e.whole[0] = [2]int64{lo, hi}
	pending, err := e.partition(base, elemBytes, e.whole[:], t0, table)
	if err != nil {
		return nil, false, nil // no surviving placement: fall back
	}
	e.stats.Offloads++

	var all, done []*sub
	finish := t0
	for round := 0; len(pending) > 0; round++ {
		if round > e.pool.NodeCount() {
			return nil, true, fmt.Errorf("offload %s: no surviving replica after %d re-dispatch rounds", req.Func, round)
		}
		e.stats.Subs += len(pending)
		all = append(all, pending...)
		g := sim.NewThreadGroup(len(pending), finish)
		sched := sim.NewScheduler(g)
		for i := range pending {
			sb := pending[i]
			sched.Spawn(func(t *sim.Thread) error {
				return e.runSub(t, sb, req, table, run)
			})
		}
		if err := sched.Run(); err != nil {
			return nil, true, err
		}
		join := g.Join()
		var lostRanges [][2]int64
		for _, sb := range pending {
			switch {
			case sb.failed != nil:
				return nil, true, sb.failed
			case sb.lost:
				e.stats.Redispatches++
				lostRanges = append(lostRanges, sb.ranges...)
			default:
				done = append(done, sb)
			}
		}
		pending = nil
		if len(lostRanges) > 0 {
			// Every lost range is re-planned at once, by the same rule.
			sort.Slice(lostRanges, func(i, j int) bool { return lostRanges[i][0] < lostRanges[j][0] })
			if pending, err = e.partition(base, elemBytes, lostRanges, join, table); err != nil {
				return nil, true, fmt.Errorf("offload %s: %w", req.Func, err)
			}
		}
		finish = join
	}

	clk.AdvanceTo(finish)
	commitStart := clk.Now()
	wire, err := e.commit(clk, done, table)
	if err != nil {
		return nil, true, err
	}

	e.emit(req, t0, commitStart, clk.Now(), wire, all, done)

	sort.Slice(done, func(i, j int) bool { return done[i].ranges[0][0] < done[j].ranges[0][0] })
	out := make([]Scalar, len(done))
	for i, sb := range done {
		out[i] = sb.val
	}
	return out, true, nil
}

// runSub is one sub-offload's thread body: stream the operands in, run the
// ranges, stream the result back. A node loss at any point marks the sub
// lost (never an error — loss is re-dispatchable, and the scheduler runs
// every thread to completion regardless).
func (e *Engine) runSub(t *sim.Thread, sb *sub, req Request, table []cluster.PlacementEntry, run Runner) error {
	clk := t.Clock()
	sb.start = clk.Now()
	defer func() { sb.end = clk.Now() }()
	if e.nodeLost(sb.node, clk.Now()) {
		sb.lost = true
		sb.dispEnd = clk.Now()
		return nil
	}
	bw := e.pool.Transport(sb.node).BW
	clk.AdvanceTo(netmodel.StreamCost(e.cfg.Net, bw, clk.Now(), req.ArgBytes, e.cfg.Chunk))
	sb.wire += int64(req.ArgBytes)
	sb.dispEnd = clk.Now()
	t.Yield()
	if e.nodeLost(sb.node, clk.Now()) {
		sb.lost = true
		return nil
	}
	env := &NodeEnv{eng: e, node: sb.node, table: table}
	sb.env = env
	val, err := run(clk, t.Yield, sb.ranges, env)
	if env.lost || errors.Is(err, ErrNodeLost) {
		sb.lost = true
		return nil
	}
	if err != nil {
		sb.failed = err
		return nil
	}
	clk.AdvanceTo(netmodel.StreamCost(e.cfg.Net, bw, clk.Now(), req.ResBytes, e.cfg.Chunk))
	sb.wire += int64(req.ResBytes)
	t.Yield()
	if e.nodeLost(sb.node, clk.Now()) {
		sb.lost = true
		return nil
	}
	sb.val = val
	return nil
}

// nodeLost reports whether node i cannot serve at instant now: inside a
// crash/partition window, or its memory was wiped and not yet resynced.
func (e *Engine) nodeLost(i int, now sim.Time) bool {
	if inj := e.pool.Injector(i); inj != nil {
		inj.Sync(now)
		if inj.Down(now) {
			return true
		}
	}
	return e.pool.NodeStale(i)
}

// segment is a run of one partition's elements owned by one placement entry
// (the entry holding each element's first byte), and the node it is given.
type segment struct {
	ent    *cluster.PlacementEntry
	lo, hi int64
	node   int
}

// partition splits ranges (ascending, disjoint) into segments, one per
// placement entry they touch, and gives each segment to a surviving home so
// that the most segments any node serves is as small as it can be: stripes
// are equal-sized, so that spreads the work over every replica. Within that
// bound the assignment is deterministic, lowest node first. It returns one
// sub per node, in ascending node order, holding that node's ranges in
// ascending order with adjacent ones merged. A segment with no surviving home
// is an error.
func (e *Engine) partition(base uint64, elemBytes int, ranges [][2]int64, now sim.Time, table []cluster.PlacementEntry) ([]*sub, error) {
	for i := range e.lost {
		e.lost[i] = e.nodeLost(i, now)
	}
	return e.spread(base, elemBytes, ranges, table)
}

// spread is partition over the nodes e.lost leaves.
func (e *Engine) spread(base uint64, elemBytes int, ranges [][2]int64, table []cluster.PlacementEntry) ([]*sub, error) {
	alive := 0
	for _, l := range e.lost {
		if !l {
			alive++
		}
	}
	e.segs = e.segs[:0]
	for _, r := range ranges {
		for el := r[0]; el < r[1]; {
			addr := base + uint64(el)*uint64(elemBytes)
			ent := entryFor(table, addr)
			if ent == nil {
				return nil, fmt.Errorf("offload: element %d at %#x outside placement table", el, addr)
			}
			end := min(r[1], int64((ent.VBase+ent.Size-base+uint64(elemBytes)-1)/uint64(elemBytes)))
			e.segs = append(e.segs, segment{ent: ent, lo: el, hi: end, node: -1})
			el = end
		}
	}
	for _, sg := range e.segs {
		if !e.survives(sg.ent) {
			return nil, fmt.Errorf("offload: element %d: every replica lost", sg.lo)
		}
	}
	// The smallest per-node cap every segment fits under, raised one at a
	// time from the even split (a cap of len(segs) always fits): each segment
	// takes a home with room, or an augmenting path moves earlier segments
	// between their homes to make some.
	for limit := (len(e.segs) + alive - 1) / max(alive, 1); !e.placeAll(limit); limit++ {
	}

	defer clear(e.byNode)
	for _, sg := range e.segs {
		sb := e.byNode[sg.node]
		if sb == nil {
			sb = &sub{node: sg.node}
			e.byNode[sg.node] = sb
		}
		if n := len(sb.ranges); n > 0 && sb.ranges[n-1][1] == sg.lo {
			sb.ranges[n-1][1] = sg.hi
		} else {
			sb.ranges = append(sb.ranges, [2]int64{sg.lo, sg.hi})
		}
		sb.elems += sg.hi - sg.lo
	}
	var subs []*sub
	for _, sb := range e.byNode {
		if sb != nil {
			subs = append(subs, sb)
		}
	}
	return subs, nil
}

// placeAll assigns every segment under limit, reporting whether it could.
func (e *Engine) placeAll(limit int) bool {
	clear(e.load)
	for i := range e.segs {
		e.segs[i].node = -1
	}
	for i := range e.segs {
		clear(e.seen)
		if !e.place(i, limit) {
			return false
		}
	}
	return true
}

// survives reports whether some home of ent is not lost.
func (e *Engine) survives(ent *cluster.PlacementEntry) bool {
	for _, h := range ent.Homes {
		if !e.lost[h.Node] {
			return true
		}
	}
	return false
}

// place gives segment i a surviving home holding fewer than limit segments:
// the lowest such home, or else — lowest home first — a full home one of
// whose segments can itself be placed elsewhere (an augmenting path; seen
// keeps each node on the path once).
func (e *Engine) place(i, limit int) bool {
	for pass := 0; pass < 2; pass++ {
		for n := range e.load {
			if e.lost[n] || e.seen[n] || !isHome(e.segs[i].ent, n) {
				continue
			}
			if pass == 0 {
				if e.load[n] < limit {
					e.assign(i, n)
					return true
				}
				continue
			}
			e.seen[n] = true
			for j := range e.segs {
				if j != i && e.segs[j].node == n && e.place(j, limit) {
					e.assign(i, n)
					return true
				}
			}
		}
	}
	return false
}

func (e *Engine) assign(i, n int) {
	if old := e.segs[i].node; old >= 0 {
		e.load[old]--
	}
	e.segs[i].node = n
	e.load[n]++
}

func isHome(ent *cluster.PlacementEntry, n int) bool {
	for _, h := range ent.Homes {
		if h.Node == n {
			return true
		}
	}
	return false
}

// entryFor finds the placement entry covering addr in a VBase-sorted table.
func entryFor(table []cluster.PlacementEntry, addr uint64) *cluster.PlacementEntry {
	i := sort.Search(len(table), func(i int) bool { return table[i].VBase > addr })
	if i == 0 {
		return nil
	}
	ent := &table[i-1]
	if addr >= ent.VBase+ent.Size {
		return nil
	}
	return ent
}

// commit is the fenced write-back: merge every finished sub's staged
// extents (disjoint by the scatter shape), coalesce adjacent runs, and
// stream them back to their serving nodes — chunked, wire-codec-encoded,
// priced on the per-node link, nodes in ascending order — before applying
// them to the pool with replica fan-out. Nothing touches far memory before
// this point, which is what makes mid-run loss recoverable without
// double-applied results.
func (e *Engine) commit(clk *sim.Clock, done []*sub, table []cluster.PlacementEntry) (int64, error) {
	exts := e.merger.merge(done)
	if len(exts) == 0 {
		return 0, nil
	}
	now := clk.Now()
	for i := range exts {
		exts[i].node = e.servingNode(exts[i].addr, now, table)
	}

	chunk := e.Chunk()
	id := e.pool.WireCodec()
	cm := codec.DefaultCostModel()
	var totalWire int64
	for n := 0; n < e.pool.NodeCount(); n++ {
		wire, serves := 0, false
		for _, x := range exts {
			if x.node != n {
				continue
			}
			serves = true
			for off := 0; off < len(x.data); off += chunk {
				piece := x.data[off:min(off+chunk, len(x.data))]
				wire += codec.EncodedLen(id, piece)
				if id != codec.None {
					clk.Advance(cm.EncodeCost(len(piece)))
				}
			}
		}
		if !serves {
			continue
		}
		bw := e.pool.Transport(n).BW
		clk.AdvanceTo(netmodel.StreamCost(e.cfg.Net, bw, clk.Now(), wire, chunk))
		totalWire += int64(wire)
		e.addBytes(n, int64(wire))
	}
	for _, x := range exts {
		if err := e.pool.Write(x.addr, x.data); err != nil {
			return totalWire, err
		}
	}
	return totalWire, nil
}

// servingNode picks the node a committed extent is attributed to: the
// first surviving home of its placement entry (first home if none survive —
// the write still fans out to every replica).
func (e *Engine) servingNode(addr uint64, now sim.Time, table []cluster.PlacementEntry) int {
	ent := entryFor(table, addr)
	if ent == nil || len(ent.Homes) == 0 {
		return 0
	}
	for _, h := range ent.Homes {
		if !e.nodeLost(h.Node, now) {
			return h.Node
		}
	}
	return ent.Homes[0].Node
}

// emit writes the trace spans and per-node counters for one Execute, in a
// fixed order (dispatch rounds, then node order) so traces are
// byte-deterministic.
func (e *Engine) emit(req Request, t0, commitStart, commitEnd sim.Time, commitWire int64, all, done []*sub) {
	for _, sb := range all {
		e.addBytes(sb.node, sb.wire)
		if sb.env != nil {
			e.addBytes(sb.node, sb.env.remoteWire)
		}
	}
	for _, sb := range done {
		e.addOps(sb.node, sb.elems)
	}
	if e.trc == nil {
		return
	}
	dispEnd := t0
	for _, sb := range all {
		if sb.dispEnd > dispEnd {
			dispEnd = sb.dispEnd
		}
	}
	e.trc.Span(t0, dispEnd, "offload", "offload.dispatch",
		trace.S("func", req.Func), trace.I("subs", int64(len(all))))
	for _, sb := range all {
		outcome := "ok"
		if sb.lost {
			outcome = "lost"
		}
		e.trc.Span(sb.start, sb.end, "offload", "offload.exec",
			trace.S("func", req.Func),
			trace.I("node", int64(sb.node)),
			trace.I("lo", sb.ranges[0][0]),
			trace.I("hi", sb.ranges[len(sb.ranges)-1][1]),
			trace.I("elems", sb.elems),
			trace.S("outcome", outcome))
	}
	e.trc.Span(commitStart, commitEnd, "offload", "offload.commit",
		trace.S("func", req.Func), trace.I("bytes", commitWire))
}

func (e *Engine) addOps(node int, n int64) {
	if e.reg == nil || n == 0 {
		return
	}
	c := e.cOps[node]
	if c == nil {
		c = e.reg.Counter("offload.ops{node=" + strconv.Itoa(node) + "}")
		e.cOps[node] = c
	}
	c.Add(n)
}

func (e *Engine) addBytes(node int, n int64) {
	if e.reg == nil || n == 0 {
		return
	}
	c := e.cBytes[node]
	if c == nil {
		c = e.reg.Counter("offload.bytes{node=" + strconv.Itoa(node) + "}")
		e.cBytes[node] = c
	}
	c.Add(n)
}

// NodeEnv is one sub-offload's view of far memory: reads are served from
// the serving node's own replica when it holds one (local memory cost) and
// from peers over the network otherwise; writes are staged locally and
// only reach the pool at commit time.
type NodeEnv struct {
	eng   *Engine
	node  int
	table []cluster.PlacementEntry
	st    staging
	objs  []objExtent // resolved once per sub

	remoteWire int64
	lost       bool
}

// objExtent is a resolved Resolver.ObjectExtent answer.
type objExtent struct {
	name      string
	base      uint64
	elemBytes int
	count     int64
}

// Node reports the serving node index.
func (env *NodeEnv) Node() int { return env.node }

// Slowdown reports the serving node's far-CPU slowdown factor.
func (env *NodeEnv) Slowdown() float64 {
	return env.eng.pool.FarNode(env.node).CPUSlowdown()
}

// object resolves name through the engine's Resolver the first time the sub
// touches it.
func (env *NodeEnv) object(name string) (*objExtent, bool) {
	for i := range env.objs {
		if env.objs[i].name == name {
			return &env.objs[i], true
		}
	}
	base, elemBytes, count, ok := env.eng.res.ObjectExtent(name)
	if !ok {
		return nil, false
	}
	env.objs = append(env.objs, objExtent{name: name, base: base, elemBytes: elemBytes, count: count})
	return &env.objs[len(env.objs)-1], true
}

// Access reads or writes one element field. Writes stage; reads of bytes
// this sub wholly staged are served from staging (read-your-writes), others
// from the local replica or, failing that, a remote one-sided read, with
// any staged bytes in the range patched over what far memory returned. It
// returns ErrNodeLost when the serving node died, which the engine turns
// into a re-dispatch.
func (env *NodeEnv) Access(clk *sim.Clock, name string, elem int64, field ir.Field, buf []byte, write bool) error {
	o, ok := env.object(name)
	if !ok {
		return fmt.Errorf("offload: access to unknown or local object %q", name)
	}
	if elem < 0 || elem >= o.count {
		return fmt.Errorf("offload: %s[%d] out of range (count %d)", name, elem, o.count)
	}
	if len(buf) > field.Bytes {
		buf = buf[:field.Bytes]
	}
	addr := o.base + uint64(elem)*uint64(o.elemBytes) + uint64(field.Offset)
	if write {
		env.st.store(addr, buf)
		clk.Advance(env.eng.cfg.LocalCost)
		return nil
	}
	staged := env.st.overlay(addr, buf)
	if staged == len(buf) {
		clk.Advance(env.eng.cfg.LocalCost)
		return nil
	}
	if err := env.readFar(clk, addr, buf); err != nil {
		return err
	}
	if staged > 0 {
		env.st.overlay(addr, buf)
	}
	return nil
}

// readFar reads [addr, addr+len(buf)) from the serving node's own replica
// when it holds the whole range, and from the pool's first surviving home,
// priced as a one-sided read on this sub's clock, when it does not.
func (env *NodeEnv) readFar(clk *sim.Clock, addr uint64, buf []byte) error {
	if env.checkLost(clk.Now()) {
		return ErrNodeLost
	}
	if lbase, local := env.localBase(addr, len(buf)); local {
		if err := env.eng.pool.FarNode(env.node).Read(lbase, buf); err != nil {
			return err
		}
		clk.Advance(env.eng.cfg.LocalCost)
	} else {
		if err := env.eng.pool.Read(addr, buf); err != nil {
			return err
		}
		clk.Advance(env.eng.cfg.Net.OneSidedCost(len(buf)))
		env.remoteWire += int64(len(buf))
	}
	if env.checkLost(clk.Now()) {
		return ErrNodeLost
	}
	return nil
}

// checkLost latches and reports serving-node loss.
func (env *NodeEnv) checkLost(now sim.Time) bool {
	if env.lost {
		return true
	}
	if env.eng.nodeLost(env.node, now) {
		env.lost = true
	}
	return env.lost
}

// localBase resolves addr to an offset in the serving node's own memory if
// the node holds a replica of the whole [addr, addr+n) range.
func (env *NodeEnv) localBase(addr uint64, n int) (uint64, bool) {
	ent := entryFor(env.table, addr)
	if ent == nil || addr+uint64(n) > ent.VBase+ent.Size {
		return 0, false
	}
	for _, h := range ent.Homes {
		if h.Node == env.node {
			return h.Base + (addr - ent.VBase), true
		}
	}
	return 0, false
}
