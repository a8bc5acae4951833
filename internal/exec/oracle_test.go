package exec_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"mira/internal/apps/arraysum"
	"mira/internal/apps/dataframe"
	"mira/internal/apps/distagg"
	"mira/internal/apps/gpt2"
	"mira/internal/apps/graphtraverse"
	"mira/internal/apps/mcf"
	"mira/internal/apps/seqscan"
	"mira/internal/apps/stridescan"
	"mira/internal/cluster"
	"mira/internal/codegen"
	"mira/internal/exec"
	"mira/internal/ir"
	"mira/internal/offload"
	"mira/internal/planner"
	"mira/internal/profile"
	"mira/internal/rt"
	"mira/internal/session"
	"mira/internal/sim"
	"mira/internal/workload"
)

// event is one call the interpreter made on its backend: what it asked for,
// the clock it asked at, and how many times it had yielded by then.
type event struct {
	op     string
	obj    string
	elem   int64
	field  ir.Field
	write  bool
	opts   rt.AccessOpts
	n      int // buffer length, or batch size
	at     sim.Time
	yields int
}

// tape records the backend calls of one run.
type tape struct {
	events []event
	yields int
}

func (t *tape) yield() { t.yields++ }

func (t *tape) add(clk *sim.Clock, e event) {
	e.at, e.yields = clk.Now(), t.yields
	t.events = append(t.events, e)
}

// recorder is an *rt.Runtime seen through exec.Backend, every call taped. It
// forwards the optional capabilities the interpreter probes for except the
// handle one — what benchmark/'s execTap does in the traced pass — so an
// executor over it drives the runtime by name.
type recorder struct {
	r *rt.Runtime
	t *tape
}

func (b recorder) Access(clk *sim.Clock, name string, elem int64, field ir.Field, buf []byte, write bool, opts rt.AccessOpts) error {
	b.t.add(clk, event{op: "access", obj: name, elem: elem, field: field, write: write, opts: opts, n: len(buf)})
	return b.r.Access(clk, name, elem, field, buf, write, opts)
}

func (b recorder) Prefetch(clk *sim.Clock, name string, elem int64, field ir.Field) error {
	b.t.add(clk, event{op: "prefetch", obj: name, elem: elem, field: field})
	return b.r.Prefetch(clk, name, elem, field)
}

func (b recorder) PrefetchBatch(clk *sim.Clock, entries []rt.BatchEntry) error {
	b.t.add(clk, event{op: "batch", n: len(entries)})
	for _, e := range entries {
		b.t.add(clk, event{op: "batch.entry", obj: e.Obj, elem: e.Elem, field: e.Field})
	}
	return b.r.PrefetchBatch(clk, entries)
}

func (b recorder) EvictHint(clk *sim.Clock, name string, elem int64) error {
	b.t.add(clk, event{op: "evict", obj: name, elem: elem})
	return b.r.EvictHint(clk, name, elem)
}

func (b recorder) Fence(clk *sim.Clock) {
	b.t.add(clk, event{op: "fence"})
	b.r.Fence(clk)
}

func (b recorder) BulkRead(clk *sim.Clock, name string, elem int64, buf []byte) error {
	b.t.add(clk, event{op: "bulk", obj: name, elem: elem, n: len(buf)})
	return b.r.BulkRead(clk, name, elem, buf)
}

func (b recorder) BulkWrite(clk *sim.Clock, name string, elem int64, buf []byte) error {
	b.t.add(clk, event{op: "bulk", obj: name, elem: elem, n: len(buf), write: true})
	return b.r.BulkWrite(clk, name, elem, buf)
}

func (b recorder) FlushObject(clk *sim.Clock, name string) error {
	b.t.add(clk, event{op: "flush", obj: name})
	return b.r.FlushObject(clk, name)
}

func (b recorder) Release(clk *sim.Clock, name string) error {
	b.t.add(clk, event{op: "release", obj: name})
	return b.r.Release(clk, name)
}

func (b recorder) RemoteAccess(clk *sim.Clock, name string, elem int64, field ir.Field, buf []byte, write bool) error {
	b.t.add(clk, event{op: "remote", obj: name, elem: elem, field: field, write: write, n: len(buf)})
	return b.r.RemoteAccess(clk, name, elem, field, buf, write)
}

func (b recorder) RemoteBulk(clk *sim.Clock, name string, elem int64, buf []byte, write bool) error {
	b.t.add(clk, event{op: "remote.bulk", obj: name, elem: elem, write: write, n: len(buf)})
	return b.r.RemoteBulk(clk, name, elem, buf, write)
}

func (b recorder) CPUSlowdown() float64 { return b.r.CPUSlowdown() }

func (b recorder) OffloadTransfer(clk *sim.Clock, argBytes, resBytes int, remoteCompute sim.Duration) {
	b.t.add(clk, event{op: "offload.transfer", elem: int64(remoteCompute), n: argBytes + resBytes})
	b.r.OffloadTransfer(clk, argBytes, resBytes, remoteCompute)
}

func (b recorder) ScatterEngine() *offload.Engine { return b.r.ScatterEngine() }
func (b recorder) MissCount() int64               { return b.r.MissCount() }

// handleRecorder is recorder plus the handle capability: an executor over it
// drives the runtime by handle, and the tape names each object all the same.
type handleRecorder struct {
	recorder
	names map[rt.Handle]string
}

func (b handleRecorder) Handle(name string) (rt.Handle, bool) {
	h, ok := b.r.Handle(name)
	if ok {
		b.names[h] = name
	}
	return h, ok
}

func (b handleRecorder) AccessH(clk *sim.Clock, h rt.Handle, elem int64, field ir.Field, buf []byte, write bool, opts rt.AccessOpts) error {
	b.t.add(clk, event{op: "access", obj: b.names[h], elem: elem, field: field, write: write, opts: opts, n: len(buf)})
	return b.r.AccessH(clk, h, elem, field, buf, write, opts)
}

func (b handleRecorder) PrefetchH(clk *sim.Clock, h rt.Handle, elem int64, field ir.Field) error {
	b.t.add(clk, event{op: "prefetch", obj: b.names[h], elem: elem, field: field})
	return b.r.PrefetchH(clk, h, elem, field)
}

func (b handleRecorder) EvictHintH(clk *sim.Clock, h rt.Handle, elem int64) error {
	b.t.add(clk, event{op: "evict", obj: b.names[h], elem: elem})
	return b.r.EvictHintH(clk, h, elem)
}

func (b handleRecorder) BulkReadH(clk *sim.Clock, h rt.Handle, elem int64, buf []byte) error {
	b.t.add(clk, event{op: "bulk", obj: b.names[h], elem: elem, n: len(buf)})
	return b.r.BulkReadH(clk, h, elem, buf)
}

func (b handleRecorder) BulkWriteH(clk *sim.Clock, h rt.Handle, elem int64, buf []byte) error {
	b.t.add(clk, event{op: "bulk", obj: b.names[h], elem: elem, n: len(buf), write: true})
	return b.r.BulkWriteH(clk, h, elem, buf)
}

func (b handleRecorder) ReleaseH(clk *sim.Clock, h rt.Handle) error {
	b.t.add(clk, event{op: "release", obj: b.names[h]})
	return b.r.ReleaseH(clk, h)
}

// cell is one (program, configuration) pair the oracle runs.
type cell struct {
	name string
	mk   func() workload.Workload
	prog *ir.Program
	cfg  rt.Config
}

// outcome is everything observable about one run of a cell.
type outcome struct {
	ret     exec.Value
	err     string
	ran     sim.Time // the clock when Run returned
	tape    *tape
	profile string
	stats   session.Stats
	scatter offload.Stats // zero without a pool
	dumps   map[string][]byte
}

// drive opens a fresh runtime for c, runs the program once under the given
// interpreter and backend view, flushes, verifies and dumps.
func drive(t *testing.T, c cell, reference, handles bool) outcome {
	t.Helper()
	w := c.mk()
	s, err := session.Open(session.Spec{
		Workload: w, Program: c.prog, Config: c.cfg,
		Swap: session.Fixed(planner.SwapPolicy()),
	})
	if err != nil {
		t.Fatalf("%s: open: %v", c.name, err)
	}
	tp := &tape{}
	var be exec.Backend = recorder{r: s.RT, t: tp}
	if handles {
		be = handleRecorder{recorder: recorder{r: s.RT, t: tp}, names: map[rt.Handle]string{}}
	}
	col := profile.NewCollector()
	cost := s.RT.Config().Cost
	opt := exec.Options{
		ComputeOp: cost.ComputeOp, FloatOp: cost.FloatOp,
		Collector: col, Params: w.Params(), Yield: tp.yield,
	}
	var ex exec.Runner
	if reference {
		ex, err = exec.NewReference(c.prog, be, opt)
	} else {
		ex, err = exec.New(c.prog, be, opt)
	}
	if err != nil {
		t.Fatalf("%s: new: %v", c.name, err)
	}
	out := outcome{tape: tp}
	ret, err := ex.Run(s.Clock())
	out.ret, out.ran, out.profile = ret, s.Clock().Now(), col.String()
	if err != nil {
		out.err = err.Error()
		return out
	}
	if out.stats, err = s.Finish(true); err != nil {
		t.Fatalf("%s: finish: %v", c.name, err)
	}
	if out.dumps, err = s.Dump(); err != nil {
		t.Fatalf("%s: dump: %v", c.name, err)
	}
	if eng := s.RT.ScatterEngine(); eng != nil {
		out.scatter = eng.Stats()
	}
	return out
}

// sameRun asserts two runs asked the same things of the backend at the same
// instants and ended the same way.
func sameRun(t *testing.T, name string, want, got outcome) {
	t.Helper()
	if want.ret != got.ret || want.err != got.err {
		t.Errorf("%s: returned (%v, %q), want (%v, %q)", name, got.ret, got.err, want.ret, want.err)
	}
	if want.ran != got.ran {
		t.Errorf("%s: run ended at %v, want %v", name, got.ran, want.ran)
	}
	if want.tape.yields != got.tape.yields {
		t.Errorf("%s: %d yields, want %d", name, got.tape.yields, want.tape.yields)
	}
	if len(want.tape.events) != len(got.tape.events) {
		t.Errorf("%s: %d backend calls, want %d", name, len(got.tape.events), len(want.tape.events))
	}
	for i := range want.tape.events {
		if i >= len(got.tape.events) {
			break
		}
		if want.tape.events[i] != got.tape.events[i] {
			t.Errorf("%s: backend call %d is %+v, want %+v", name, i, got.tape.events[i], want.tape.events[i])
			break
		}
	}
	if want.profile != got.profile {
		t.Errorf("%s: profile\n%s\nwant\n%s", name, got.profile, want.profile)
	}
}

// sameState asserts two runs left the runtime in the same state.
func sameState(t *testing.T, name string, want, got outcome) {
	t.Helper()
	if !reflect.DeepEqual(want.stats, got.stats) {
		t.Errorf("%s: stats %+v, want %+v", name, got.stats, want.stats)
	}
	if want.scatter != got.scatter {
		t.Errorf("%s: scatter engine %+v, want %+v", name, got.scatter, want.scatter)
	}
	if len(want.dumps) != len(got.dumps) {
		t.Errorf("%s: %d objects dumped, want %d", name, len(got.dumps), len(want.dumps))
	}
	for obj, d := range want.dumps {
		if !bytes.Equal(d, got.dumps[obj]) {
			t.Errorf("%s: object %q differs", name, obj)
		}
	}
}

// smallApps are quick instances of the nine mira-run applications.
func smallApps() map[string]func() workload.Workload {
	return map[string]func() workload.Workload{
		"graph": func() workload.Workload {
			return graphtraverse.New(graphtraverse.Config{Edges: 2048, Nodes: 2048, Passes: 1, Seed: 9})
		},
		"mcf": func() workload.Workload {
			return mcf.New(mcf.Config{Arcs: 1024, Nodes: 256, Iterations: 4, WalkLen: 16, Seed: 42})
		},
		"dataframe": func() workload.Workload { return dataframe.New(dataframe.Config{Rows: 4096, Seed: 2014}) },
		"gpt2": func() workload.Workload {
			return gpt2.New(gpt2.Config{Layers: 2, DModel: 32, DFF: 64, SeqLen: 16, Seed: 5})
		},
		"arraysum":   func() workload.Workload { return arraysum.New(arraysum.Config{N: 8192, Seed: 1}) },
		"seqscan":    func() workload.Workload { return seqscan.New(seqscan.Config{N: 4096, Seed: 1}) },
		"stridescan": func() workload.Workload { return stridescan.New(stridescan.Config{N: 2048, Seed: 1}) },
		"distagg":    func() workload.Workload { return distagg.New(distagg.Config{N: 1 << 12, Seed: 3}) },
		"distfilter": func() workload.Workload { return distagg.New(distagg.Config{N: 1 << 12, Seed: 3, Mode: "filter"}) },
	}
}

// oracleCells are every app's canonical program on the generic swap
// configuration and its planner-compiled clone on the planned one (native
// loads, NoFetch stores, prefetch / batch / evict / release statements), plus
// offloaded kernels: the two scatter-shaped apps planned with offload on over
// a 4-node and a 1-node pool, and with every function marked on the swap
// configuration (all three the scatter-gather engine), and mcf with every
// function marked — AnalyzeScatter declines price and update, so they take
// the whole-call RPC.
func oracleCells(t *testing.T) []cell {
	t.Helper()
	var cells []cell
	for name, mk := range smallApps() {
		w := mk()
		budget := w.FullMemoryBytes() / 4
		swapCfg, err := session.SwapOnly(w.Program(), budget)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cells = append(cells, cell{name + "/canonical", mk, w.Program(), swapCfg})
		res, err := planner.Plan(w, planner.Options{LocalBudget: budget})
		if err != nil {
			t.Fatalf("%s: plan: %v", name, err)
		}
		cells = append(cells, cell{name + "/planned", mk, res.Program, res.Config})

		switch name {
		case "distagg", "distfilter":
			for _, nodes := range []int{4, 1} {
				co := cluster.Options{Nodes: nodes, Replicas: (nodes + 2) / 3, Seed: 1, StripeBytes: 4 << 10}
				res, err := planner.Plan(w, planner.Options{LocalBudget: budget, Offload: "on", Cluster: &co})
				if err != nil {
					t.Fatalf("%s: plan offload on %d nodes: %v", name, nodes, err)
				}
				if len(res.Offloaded) == 0 {
					t.Fatalf("%s: nothing offloaded on %d nodes", name, nodes)
				}
				cells = append(cells, cell{fmt.Sprintf("%s/offload-%dnode", name, nodes), mk, res.Program, res.Config})
			}
		case "mcf":
		default:
			continue
		}
		marks := map[string]bool{}
		for _, f := range w.Program().Funcs {
			marks[f.Name] = f.Name != w.Program().Entry
		}
		marked, err := codegen.Apply(w.Program(), &codegen.Plan{Offload: marks})
		if err != nil {
			t.Fatalf("%s: mark offloaded: %v", name, err)
		}
		cells = append(cells, cell{name + "/offload-marked", mk, marked, swapCfg})
	}
	return cells
}

// TestResolvedMatchesReferenceOnApps: on every cell the resolved interpreter
// returns what the tree walk returned, ends on the same clock, and in between
// makes the same backend calls with the same arguments at the same instants
// after the same number of yields, feeding the collector the same profile.
// Then the same run with the handle capability hidden — every call by name —
// leaves the same clock, counters and far memory behind.
func TestResolvedMatchesReferenceOnApps(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range oracleCells(t) {
		ref := drive(t, c, true, true)
		if ref.err != "" {
			t.Errorf("%s: reference run failed: %s", c.name, ref.err)
			continue
		}
		seen["scatter"] = seen["scatter"] || ref.scatter.Offloads > 0
		for _, e := range ref.tape.events {
			seen[e.op] = true
			seen["native"] = seen["native"] || e.opts.Native
			seen["nofetch"] = seen["nofetch"] || e.opts.NoFetch
		}
		byHandle := drive(t, c, false, true)
		sameRun(t, c.name, ref, byHandle)
		sameState(t, c.name, ref, byHandle)

		byName := drive(t, c, false, false)
		sameRun(t, c.name+" (by name)", byHandle, byName)
		sameState(t, c.name+" (by name)", byHandle, byName)
	}
	// The comparison is only as wide as what the cells make the interpreter do.
	for _, kind := range []string{"access", "native", "nofetch", "prefetch", "batch", "evict", "fence",
		"release", "bulk", "flush", "remote", "offload.transfer", "scatter"} {
		if !seen[kind] {
			t.Errorf("no cell exercised %q", kind)
		}
	}
}
