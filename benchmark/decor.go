package main

import (
	"math/bits"
	"time"

	"mira/internal/exec"
	"mira/internal/ir"
	"mira/internal/offload"
	"mira/internal/rt"
	"mira/internal/sim"
	"mira/internal/transport"
)

// fold accumulates the per-operation spans of one (cell, op kind) at a
// layer boundary. A cell issues 10^5–10^7 backend operations, far too many
// to keep as spans, so each is folded where it is measured into a count,
// the host and simulated time spent inside the call, and a power-of-two
// histogram of the simulated time (bucket i holds durations of bit length
// i, as trace.Histogram does).
type fold struct {
	Count  int64     `json:"count"`
	HostNs int64     `json:"host_ns"`
	SimNs  int64     `json:"sim_ns"`
	Bytes  int64     `json:"bytes,omitempty"`
	Hist   [40]int64 `json:"-"`
}

func (f *fold) add(host time.Duration, simNs int64) {
	f.Count++
	f.HostNs += int64(host)
	f.SimNs += simNs
	b := bits.Len64(uint64(simNs))
	if b >= len(f.Hist) {
		b = len(f.Hist) - 1
	}
	f.Hist[b]++
}

// The exec→rt seam's operation kinds, in exec.Backend method order.
const (
	opAccess = iota
	opPrefetch
	opPrefetchBatch
	opEvictHint
	opFence
	opBulkRead
	opBulkWrite
	opFlushObject
	opRelease
	numExecOps
)

var execOpNames = [numExecOps]string{
	"access", "prefetch", "prefetch_batch", "evict_hint", "fence",
	"bulk_read", "bulk_write", "flush_object", "release",
}

// execTap decorates an exec.Backend: every call is forwarded unchanged and
// folded into ops[kind]. It sees exactly what the interpreter asks of the
// runtime, so Σ ops is the interpreter's backend-operation count and the
// run span minus Σ host time is the interpreter's own (self) time.
type execTap struct {
	be  exec.Backend
	ops [numExecOps]fold
	// cur is the op kind in progress (numExecOps outside any call); the
	// far-node decorator reads it to file its calls under the backend
	// operation that caused them.
	cur int
	// batchEntries counts the lines PrefetchBatch calls carried.
	batchEntries int64
}

// begin opens the span of one forwarded call; end folds it.
type tapSpan struct {
	kind int
	sim  sim.Time
	host time.Time
}

func (t *execTap) begin(kind int, clk *sim.Clock) tapSpan {
	t.cur = kind
	return tapSpan{kind, clk.Now(), time.Now()}
}

func (t *execTap) end(s tapSpan, clk *sim.Clock) {
	t.ops[s.kind].add(time.Since(s.host), int64(clk.Now().Sub(s.sim)))
	t.cur = numExecOps
}

func (t *execTap) Access(clk *sim.Clock, name string, elem int64, field ir.Field, buf []byte, write bool, opts rt.AccessOpts) error {
	s := t.begin(opAccess, clk)
	err := t.be.Access(clk, name, elem, field, buf, write, opts)
	t.end(s, clk)
	return err
}

func (t *execTap) Prefetch(clk *sim.Clock, name string, elem int64, field ir.Field) error {
	s := t.begin(opPrefetch, clk)
	err := t.be.Prefetch(clk, name, elem, field)
	t.end(s, clk)
	return err
}

func (t *execTap) PrefetchBatch(clk *sim.Clock, entries []rt.BatchEntry) error {
	s := t.begin(opPrefetchBatch, clk)
	err := t.be.PrefetchBatch(clk, entries)
	t.end(s, clk)
	t.batchEntries += int64(len(entries))
	return err
}

func (t *execTap) EvictHint(clk *sim.Clock, name string, elem int64) error {
	s := t.begin(opEvictHint, clk)
	err := t.be.EvictHint(clk, name, elem)
	t.end(s, clk)
	return err
}

func (t *execTap) Fence(clk *sim.Clock) {
	s := t.begin(opFence, clk)
	t.be.Fence(clk)
	t.end(s, clk)
}

func (t *execTap) BulkRead(clk *sim.Clock, name string, elem int64, buf []byte) error {
	s := t.begin(opBulkRead, clk)
	err := t.be.BulkRead(clk, name, elem, buf)
	t.end(s, clk)
	t.ops[opBulkRead].Bytes += int64(len(buf))
	return err
}

func (t *execTap) BulkWrite(clk *sim.Clock, name string, elem int64, buf []byte) error {
	s := t.begin(opBulkWrite, clk)
	err := t.be.BulkWrite(clk, name, elem, buf)
	t.end(s, clk)
	t.ops[opBulkWrite].Bytes += int64(len(buf))
	return err
}

func (t *execTap) FlushObject(clk *sim.Clock, name string) error {
	s := t.begin(opFlushObject, clk)
	err := t.be.FlushObject(clk, name)
	t.end(s, clk)
	return err
}

func (t *execTap) Release(clk *sim.Clock, name string) error {
	s := t.begin(opRelease, clk)
	err := t.be.Release(clk, name)
	t.end(s, clk)
	return err
}

// total sums every op kind.
func (t *execTap) total() fold { return sumFolds(t.ops[:]) }

// rtCaps are the optional capabilities the interpreter probes a backend
// for: offloaded execution (exec.RemoteEnv), the scatter-gather engine, and
// the profiler's miss counter. *rt.Runtime has all three.
type rtCaps interface {
	exec.RemoteEnv
	ScatterEngine() *offload.Engine
	MissCount() int64
}

// execTapCaps is an execTap over a backend with the optional capabilities;
// embedding forwards them, so the interpreter behaves exactly as it does on
// the undecorated runtime.
type execTapCaps struct {
	*execTap
	rtCaps
}

// tapExec wraps be. The result exposes the optional capabilities only when
// be has them: a decorated baseline must not start claiming it can offload.
func tapExec(be exec.Backend) (exec.Backend, *execTap) {
	t := &execTap{be: be, cur: numExecOps}
	if caps, ok := be.(rtCaps); ok {
		return &execTapCaps{execTap: t, rtCaps: caps}, t
	}
	return t, t
}

// The transport→far-node seam's operation kinds.
const (
	farRead = iota
	farWrite
	farGather
	farScatter
	farCall
	numFarOps
)

var farOpNames = [numFarOps]string{"read", "write", "gather", "scatter", "call"}

// farTap decorates a transport.Backend — the far node as the transport
// sees it, fault injector and capacity tier included. Far-node calls charge
// no simulated time themselves (the transport prices them), so SimNs holds
// what the backend reports back: the far CPU time of Call.
type farTap struct {
	be  transport.Backend
	ops *farFolds
}

// farFolds files far-node calls under the exec→rt operation kind that
// caused them; the last row holds calls made outside any (the closing
// FlushAll).
type farFolds struct {
	cur *int
	by  [numExecOps + 1][numFarOps]fold
}

func (f *farFolds) at(kind int) *fold { return &f.by[*f.cur][kind] }

// record folds one far-node call that started at h0.
func (f *farFolds) record(kind int, h0 time.Time, bytes int, farCPU sim.Duration) {
	fd := f.at(kind)
	fd.add(time.Since(h0), int64(farCPU))
	fd.Bytes += int64(bytes)
}

func (t farTap) Read(now sim.Time, addr uint64, buf []byte) (uint32, sim.Duration, error) {
	h0 := time.Now()
	sum, extra, err := t.be.Read(now, addr, buf)
	t.ops.record(farRead, h0, len(buf), 0)
	return sum, extra, err
}

func (t farTap) Write(now sim.Time, addr uint64, buf []byte) (sim.Duration, error) {
	h0 := time.Now()
	extra, err := t.be.Write(now, addr, buf)
	t.ops.record(farWrite, h0, len(buf), 0)
	return extra, err
}

func (t farTap) Gather(now sim.Time, addrs []uint64, sizes []int) ([]byte, uint32, sim.Duration, error) {
	h0 := time.Now()
	data, sum, extra, err := t.be.Gather(now, addrs, sizes)
	t.ops.record(farGather, h0, len(data), 0)
	return data, sum, extra, err
}

func (t farTap) Scatter(now sim.Time, addrs []uint64, pieces [][]byte) (sim.Duration, error) {
	h0 := time.Now()
	extra, err := t.be.Scatter(now, addrs, pieces)
	n := 0
	for _, p := range pieces {
		n += len(p)
	}
	t.ops.record(farScatter, h0, n, 0)
	return extra, err
}

func (t farTap) Call(now sim.Time, name string, args []byte) ([]byte, sim.Duration, sim.Duration, error) {
	h0 := time.Now()
	res, farCPU, extra, err := t.be.Call(now, name, args)
	t.ops.record(farCall, h0, len(args)+len(res), farCPU)
	return res, farCPU, extra, err
}

// tapFar installs a farTap on every transport of r (the single node's, or
// each pool member's) and returns the shared folds. cur points at the
// exec-side decorator's operation in progress.
func tapFar(r *rt.Runtime, cur *int) *farFolds {
	ops := &farFolds{cur: cur}
	if t := r.Transport(); t != nil {
		t.SetBackend(farTap{be: t.Backend(), ops: ops})
	}
	if p := r.Pool(); p != nil {
		for i := 0; i < p.NodeCount(); i++ {
			t := p.Transport(i)
			t.SetBackend(farTap{be: t.Backend(), ops: ops})
		}
	}
	return ops
}

// byKind sums the far-node calls of each kind over the exec-side rows
// [from, to).
func (f *farFolds) byKind(from, to int) (out [numFarOps]fold) {
	for row := from; row < to; row++ {
		for k := range out {
			addFold(&out[k], f.by[row][k])
		}
	}
	return out
}

func sumFolds(fs []fold) (f fold) {
	for _, x := range fs {
		addFold(&f, x)
	}
	return f
}

// tapCost is what a decorator itself costs per forwarded call: in is the
// part that lands inside the recorded span (charged to the callee's layer),
// out the part outside it (charged to the caller's). Both are measured
// against no-op backends and subtracted before host self times are
// reported.
type tapCost struct{ in, out float64 }

type nopExec struct{}

func (nopExec) Access(*sim.Clock, string, int64, ir.Field, []byte, bool, rt.AccessOpts) error {
	return nil
}
func (nopExec) Prefetch(*sim.Clock, string, int64, ir.Field) error { return nil }
func (nopExec) PrefetchBatch(*sim.Clock, []rt.BatchEntry) error    { return nil }
func (nopExec) EvictHint(*sim.Clock, string, int64) error          { return nil }
func (nopExec) Fence(*sim.Clock)                                   {}
func (nopExec) BulkRead(*sim.Clock, string, int64, []byte) error   { return nil }
func (nopExec) BulkWrite(*sim.Clock, string, int64, []byte) error  { return nil }
func (nopExec) FlushObject(*sim.Clock, string) error               { return nil }
func (nopExec) Release(*sim.Clock, string) error                   { return nil }

type nopFar struct{}

func (nopFar) Read(sim.Time, uint64, []byte) (uint32, sim.Duration, error) { return 0, 0, nil }
func (nopFar) Write(sim.Time, uint64, []byte) (sim.Duration, error)        { return 0, nil }
func (nopFar) Gather(sim.Time, []uint64, []int) ([]byte, uint32, sim.Duration, error) {
	return nil, 0, 0, nil
}
func (nopFar) Scatter(sim.Time, []uint64, [][]byte) (sim.Duration, error) { return 0, nil }
func (nopFar) Call(sim.Time, string, []byte) ([]byte, sim.Duration, sim.Duration, error) {
	return nil, 0, 0, nil
}

// calibrateTaps measures both decorators over no-op backends.
func calibrateTaps() (execCost, farCost tapCost) {
	const n = 200_000
	clk := sim.NewClock(0)
	var buf [8]byte

	var bare exec.Backend = nopExec{}
	h0 := time.Now()
	for i := 0; i < n; i++ {
		_ = bare.Access(clk, "", 0, ir.Field{}, buf[:], false, rt.AccessOpts{})
	}
	base := float64(time.Since(h0))
	be, tap := tapExec(nopExec{})
	h0 = time.Now()
	for i := 0; i < n; i++ {
		_ = be.Access(clk, "", 0, ir.Field{}, buf[:], false, rt.AccessOpts{})
	}
	total := float64(time.Since(h0)) - base
	execCost.in = float64(tap.ops[opAccess].HostNs) / n
	execCost.out = total/n - execCost.in

	var bareFar transport.Backend = nopFar{}
	h0 = time.Now()
	for i := 0; i < n; i++ {
		_, _, _ = bareFar.Read(0, 0, buf[:])
	}
	base = float64(time.Since(h0))
	idle := numExecOps
	ops := &farFolds{cur: &idle}
	var ft transport.Backend = farTap{be: nopFar{}, ops: ops}
	h0 = time.Now()
	for i := 0; i < n; i++ {
		_, _, _ = ft.Read(0, 0, buf[:])
	}
	total = float64(time.Since(h0)) - base
	farCost.in = float64(ops.at(farRead).HostNs) / n
	farCost.out = total/n - farCost.in
	if execCost.out < 0 {
		execCost.out = 0
	}
	if farCost.out < 0 {
		farCost.out = 0
	}
	return execCost, farCost
}
