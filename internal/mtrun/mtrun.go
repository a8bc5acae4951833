// Package mtrun drives the multithreaded experiments (§4.6, Figs. 24-25)
// on the deterministic interleaved scheduler (sim.Scheduler): every
// simulated thread yields at each memory-operation boundary, the thread
// with the lowest (virtual time, id) runs next, and all threads mutate the
// shared runtime state in that event order. Cross-thread contention —
// eviction interference in shared sections, link occupancy, swap-lock
// serialization, write-back queue pressure — is therefore emergent from
// the shared cache/NIC/swap state rather than modeled in closed form, and
// the whole interleaving is byte-reproducible.
//
// Two drivers mirror the paper's two experiments:
//
//   - ReadOnlyScaling (Fig. 24): n threads divide a fixed batch of
//     independent read-only workload instances (GPT-2 inference). Mira
//     gives each thread private cache sections (budget/n each) over a
//     shared link; Mira-unopt binds n renamed program replicas to ONE
//     runtime whose conservative shared sections (fully-associative, no
//     eviction hints, no native loads) all threads pressure concurrently;
//     FastSwap shares one page pool behind the serialized kernel fault
//     lock.
//   - SharedWriteFilter (Fig. 25): n threads filter disjoint row ranges of
//     one table into a shared result vector. Mira uses a shared
//     fully-associative section for the written vector (§4.6) and a shared
//     sequential section for the scanned columns.
package mtrun

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"mira/internal/analysis"
	"mira/internal/apps/dataframe"
	"mira/internal/baselines/aifm"
	"mira/internal/baselines/fastswap"
	"mira/internal/cache"
	"mira/internal/codegen"
	"mira/internal/exec"
	"mira/internal/ir"
	"mira/internal/netmodel"
	"mira/internal/planner"
	"mira/internal/rt"
	"mira/internal/session"
	"mira/internal/sim"
	"mira/internal/trace"
	"mira/internal/workload"
)

// Mode selects the multithreading strategy.
type Mode string

// The compared configurations.
const (
	// MiraPrivate gives each thread private sections (§4.6 read-only /
	// shared-nothing).
	MiraPrivate Mode = "mira"
	// MiraShared shares one section set across threads (the paper's
	// "Mira-unopt" reference in Fig. 24).
	MiraShared Mode = "mira-unopt"
	// FastSwapShared shares the swap pool behind the kernel fault lock.
	FastSwapShared Mode = "fastswap"
	// AIFMShared shares the AIFM object cache.
	AIFMShared Mode = "aifm"
)

// Result is one scaling point.
type Result struct {
	Mode    Mode
	Threads int
	// Time is the fork-join completion time.
	Time sim.Duration
	// PerThread are the individual completion times.
	PerThread []sim.Duration
	// Messages and BytesMoved count link-level transfers across the whole
	// thread group (the group shares one physical link).
	Messages   int64
	BytesMoved int64

	// oracle flushes the group's runtimes and checks the output; see Verify.
	oracle func() error
	// sessions are the group's open sessions; see Close.
	sessions []*session.Session
}

// Verify flushes every runtime of the group on a post-join clock and checks
// the far memory the threads left behind against the native oracle: for
// ReadOnlyScaling, every thread's copy of every object must equal a native
// replay of the thread's share of the batch; for SharedWriteFilter, the
// shared result vector must hold every partition's output. Costs nothing
// unless called.
func (res Result) Verify() error { return res.oracle() }

// Close releases the far memory of every runtime of the group
// (session.Session.Close): call it when the point has been read and, if it
// is to be verified, after Verify — a closed group fails verification.
func (res Result) Close() { closeAll(res.sessions) }

func closeAll(ss []*session.Session) {
	for _, s := range ss {
		s.Close()
	}
}

// DefaultReps is the fixed total work of the read-only scaling experiment:
// the batch of independent inferences the threads divide among themselves.
const DefaultReps = 8

// runThreads executes the thread group and fills in the fork-join time,
// per-thread times and the group's link counters.
func (res *Result) runThreads(ths []session.Thread) error {
	var err error
	res.Time, res.PerThread, err = session.RunThreads(ths)
	if err != nil {
		return err
	}
	// Every mode shares one link (private runtimes share one Bandwidth),
	// so any session's pool counters are the group totals.
	p := ths[0].S.Pool()
	res.Messages, res.BytesMoved = p.Messages(), p.BytesMoved()
	return nil
}

// repsFor divides the fixed DefaultReps batch across threads.
func repsFor(threads int) int {
	reps := DefaultReps / threads
	if reps < 1 {
		reps = 1
	}
	return reps
}

// replicaIniter redirects a workload's object initialization to one
// replica's renamed objects in a merged program.
type replicaIniter struct {
	ini workload.ObjectIniter
	i   int
}

func (ri replicaIniter) InitObject(name string, data []byte) error {
	return ri.ini.InitObject(ir.ReplicaName(name, ri.i), data)
}

// mergedWorkload wraps a workload as its n-replica merged program: Init
// loads every replica's copy of the data.
type mergedWorkload struct {
	workload.Workload
	prog *ir.Program
	n    int
}

func (m mergedWorkload) Program() *ir.Program { return m.prog }

func (m mergedWorkload) Init(ini workload.ObjectIniter) error {
	for i := 0; i < m.n; i++ {
		if err := m.Workload.Init(replicaIniter{ini: ini, i: i}); err != nil {
			return err
		}
	}
	return nil
}

// ReadOnlyScaling divides DefaultReps independent executions of w across
// threads (Fig. 24), interleaving them on the deterministic scheduler.
func ReadOnlyScaling(mode Mode, w workload.Workload, budget int64, threads int) (Result, error) {
	return ReadOnlyScalingTraced(mode, w, budget, threads, nil)
}

// ReadOnlyScalingTraced is ReadOnlyScaling with a tracer attached to every
// runtime in the group (nil disables tracing).
func ReadOnlyScalingTraced(mode Mode, w workload.Workload, budget int64, threads int, tr *trace.Tracer) (Result, error) {
	if threads < 1 {
		return Result{}, fmt.Errorf("mtrun: threads = %d", threads)
	}
	res := Result{Mode: mode, Threads: threads}
	reps := repsFor(threads)
	ths := make([]session.Thread, threads)
	// copies[i] reads thread i's copy of the workload's objects, under the
	// workload's own names.
	copies := make([]workload.ObjectDumper, threads)
	// A group that fails part-way gives back what it had opened.
	ok := false
	defer func() {
		if !ok {
			closeAll(res.sessions)
		}
	}()

	switch mode {
	case MiraPrivate:
		// Private per-thread sections (§4.6): each thread plans and owns
		// budget/threads of local memory; all runtimes share one physical
		// link, arbitrated by event order.
		plan, err := planner.Plan(w, planner.Options{
			LocalBudget:   budget / int64(threads),
			MaxIterations: 6,
		})
		if err != nil {
			return Result{}, err
		}
		bw := netmodel.NewBandwidth(netmodel.DefaultConfig())
		for i := range ths {
			s, err := session.Open(session.Spec{
				Workload: w, Program: plan.Program, Config: plan.Config,
				Swap: session.NoPrefetch, Link: bw, Trace: tr,
			})
			if err != nil {
				return Result{}, err
			}
			res.sessions = append(res.sessions, s)
			ths[i] = session.Thread{S: s, Reps: reps}
			copies[i] = s.Dumper()
		}

	case MiraShared:
		// One section set shared by all threads: §4.6's conservative
		// configuration — fully-associative, no eviction hints, no
		// native-load conversion (another thread may evict any line). The
		// planned program is replicated per thread (renamed copies of its
		// objects and functions) and bound to ONE runtime, so all threads'
		// working sets fight for the same full-budget sections: eviction
		// interference, in-flight stealing, and write-back contention are
		// emergent from the interleaving.
		plan, err := planner.Plan(w, planner.Options{
			LocalBudget:   budget,
			MaxIterations: 6,
			Techniques: planner.TechniqueMask{
				ForceFullAssoc: true,
				NoEvictHints:   true,
				NoNative:       true,
			},
		})
		if err != nil {
			return Result{}, err
		}
		merged := ir.MergeReplicas(plan.Program, threads)
		cfg := plan.Config
		placements := make(map[string]rt.Placement, threads*len(cfg.Placements))
		for name, pl := range cfg.Placements {
			for i := 0; i < threads; i++ {
				placements[ir.ReplicaName(name, i)] = pl
			}
		}
		cfg.Placements = placements
		// Per-thread local objects (stacks, pinned state) live outside the
		// contended far-memory budget; widen the accounting for the extra
		// replicas so the shared sections keep their planned full size.
		cfg.LocalBudget += int64(threads-1) * plan.Program.LocalBytes()
		s, err := session.Open(session.Spec{
			Workload: mergedWorkload{Workload: w, prog: merged, n: threads},
			Config:   cfg, Swap: session.NoPrefetch, Trace: tr,
		})
		if err != nil {
			return Result{}, err
		}
		res.sessions = append(res.sessions, s)
		for i := range ths {
			ths[i] = session.Thread{S: s, Program: ir.CloneForEntry(merged, ir.ReplicaName(plan.Program.Entry, i)), Reps: reps}
			copies[i] = replicaDumper{d: s.Dumper(), i: i}
		}

	case FastSwapShared:
		// One page pool shared by all threads' replicas; every major fault
		// serializes on the kernel swap lock, so fault-path queueing grows
		// with the number of concurrently faulting threads.
		prog := w.Program()
		mw := mergedWorkload{Workload: w, prog: ir.MergeReplicas(prog, threads), n: threads}
		spec, err := fastswap.Spec(mw, fastswap.Options{
			// Keep the shared pool at `budget` like the single-thread
			// baseline: replica locals are per-thread stacks outside it.
			LocalBudget: budget + int64(threads-1)*prog.LocalBytes(),
		})
		if err != nil {
			return Result{}, err
		}
		spec.Trace = tr
		s, err := session.Open(spec)
		if err != nil {
			return Result{}, err
		}
		res.sessions = append(res.sessions, s)
		s.RT.SwapLock(&sim.Serializer{})
		for i := range ths {
			ths[i] = session.Thread{S: s, Program: ir.CloneForEntry(mw.prog, ir.ReplicaName(prog.Entry, i)), Reps: reps}
			copies[i] = replicaDumper{d: s.Dumper(), i: i}
		}

	default:
		return Result{}, fmt.Errorf("mtrun: mode %q not supported for read-only scaling", mode)
	}

	res.oracle = func() error {
		for _, t := range ths {
			if _, err := t.S.Finish(false); err != nil {
				return err
			}
		}
		return verifyReplay(w, reps, copies)
	}
	if err := res.runThreads(ths); err != nil {
		return Result{}, err
	}
	ok = true
	return res, nil
}

// replicaDumper reads one replica's renamed objects of a merged program
// under the workload's own names.
type replicaDumper struct {
	d workload.ObjectDumper
	i int
}

func (rd replicaDumper) DumpObject(name string) ([]byte, error) {
	return rd.d.DumpObject(ir.ReplicaName(name, rd.i))
}

// verifyReplay compares every thread's copy of every far object with a
// native execution of reps back-to-back runs of w. Read-only scaling
// workloads update their state in place, so the reference must repeat the
// thread's whole share of the batch, not one run.
func verifyReplay(w workload.Workload, reps int, copies []workload.ObjectDumper) error {
	native, err := session.Open(session.Spec{Workload: w, Config: session.Native(w.Program())})
	if err != nil {
		return err
	}
	defer native.Close()
	for rep := 0; rep < reps; rep++ {
		if _, err := native.Run(); err != nil {
			return err
		}
	}
	want, err := native.Dump()
	if err != nil {
		return err
	}
	for i, d := range copies {
		for name, ref := range want {
			got, err := d.DumpObject(name)
			if err != nil {
				return err
			}
			if !bytes.Equal(got, ref) {
				return fmt.Errorf("mtrun: thread %d: object %q diverges from a native replay of %d runs", i, name, reps)
			}
		}
	}
	return nil
}

// SharedWriteFilter partitions a dataframe filter across threads writing a
// shared result vector (Fig. 25). All threads run interleaved against one
// runtime: the scanned columns and the shared result section carry every
// thread's traffic in virtual-time event order.
func SharedWriteFilter(mode Mode, cfg dataframe.Config, budget int64, threads int) (Result, error) {
	if threads < 1 {
		return Result{}, fmt.Errorf("mtrun: threads = %d", threads)
	}
	cfg.FilterOnly = true
	w := dataframe.New(cfg)
	rows := w.Config().Rows
	res := Result{Mode: mode, Threads: threads}

	prog := w.Program()
	progMT := ir.CloneForEntry(prog, "filterPart")
	paramsFor := func(i int) map[string]exec.Value {
		lo := rows * int64(i) / int64(threads)
		hi := rows * int64(i+1) / int64(threads)
		return map[string]exec.Value{
			"start":   exec.IntV(lo),
			"end":     exec.IntV(hi),
			"outbase": exec.IntV(lo), // disjoint output slots
		}
	}

	var s *session.Session
	var err error
	switch mode {
	case MiraPrivate:
		// Writable-shared threads share one runtime; the written vector
		// lives in a shared fully-associative section with conservative
		// configuration (§4.6); the scanned columns get a sequential
		// direct section with prefetch.
		s, err = miraSharedFilterSession(w, progMT, budget)
	case FastSwapShared:
		s, err = fastswap.New(filterWorkload{Workload: w, prog: progMT}, fastswap.Options{LocalBudget: budget})
		if err == nil {
			s.RT.SwapLock(&sim.Serializer{})
		}
	case AIFMShared:
		fw := filterWorkload{Workload: w, prog: progMT}
		var r *aifm.Runtime
		r, err = aifm.New(fw, aifm.Options{LocalBudget: budget, ChunkBytes: 4096})
		if err == nil {
			s = session.Over(r, fw, progMT, nil)
		}
	default:
		return Result{}, fmt.Errorf("mtrun: mode %q not supported for shared-write filter", mode)
	}
	if err != nil {
		return Result{}, err
	}
	res.sessions = []*session.Session{s}
	ths := make([]session.Thread, threads)
	for i := range ths {
		ths[i] = session.Thread{S: s, Params: paramsFor(i), Reps: 1}
	}
	res.oracle = func() error {
		if _, err := s.Finish(false); err != nil {
			return err
		}
		return VerifySharedFilter(cfg, threads, s.Dumper())
	}
	if err := res.runThreads(ths); err != nil {
		s.Close()
		return Result{}, err
	}
	return res, nil
}

// filterWorkload rebinds a dataframe workload to the filterPart entry.
type filterWorkload struct {
	*dataframe.Workload
	prog *ir.Program
}

// Program returns the filterPart-entry clone.
func (f filterWorkload) Program() *ir.Program { return f.prog }

// miraSharedFilterSession builds the §4.6 writable-shared configuration:
// payment+fare in a shared streaming section, the shared result vector in a
// fully-associative section (largest access granularity, no eviction
// hints), and applies codegen with prefetch on the scanned columns. Both
// sections are fully associative: with n threads interleaving, the column
// section carries 2n concurrent lockstep streams, and direct-mapped
// indexing would let aliasing streams conflict-evict each other's lines on
// every access — the §4.6 conservative rule (assume any other thread may
// touch the section) applies to the scanned columns too.
func miraSharedFilterSession(w workload.Workload, prog *ir.Program, budget int64) (*session.Session, error) {
	seqBytes := budget / 4
	cfg := rt.Config{
		LocalBudget: budget,
		SwapPool:    budget / 8,
		Sections: []rt.SectionSpec{
			{Cache: cache.Config{Name: "cols", Structure: cache.FullAssoc, LineBytes: 2048, SizeBytes: seqBytes}},
			{Cache: cache.Config{Name: "shared-result", Structure: cache.FullAssoc, LineBytes: 64, SizeBytes: budget - seqBytes - budget/8}},
		},
		Placements: map[string]rt.Placement{
			"payment": {Kind: rt.PlaceSection, Section: 0},
			"fare":    {Kind: rt.PlaceSection, Section: 0},
			"result":  {Kind: rt.PlaceSection, Section: 1},
		},
	}
	plan := &codegen.Plan{Objects: map[string]*codegen.ObjectPlan{
		"payment": {Object: "payment", Pattern: analysis.PatternSequential, PrefetchDistance: 512, LineElems: 256, Native: true},
		"fare":    {Object: "fare", Pattern: analysis.PatternSequential, PrefetchDistance: 512, LineElems: 256},
		// The result vector is write-only and filled front to back
		// within each thread's partition: allocate lines without
		// fetching (§4.5 read/write optimization). Partitions are
		// line-aligned, so no-fetch allocation cannot clobber a
		// neighbour's output.
		"result": {Object: "result", Pattern: analysis.PatternSequential, LineElems: 8, NoFetch: true},
	}}
	compiled, err := codegen.Apply(prog, plan)
	if err != nil {
		return nil, err
	}
	return session.Open(session.Spec{Workload: w, Program: compiled, Config: cfg, Swap: session.NoPrefetch})
}

// Oracle verification for the partitioned filter.
func VerifySharedFilter(cfg dataframe.Config, threads int, d workload.ObjectDumper) error {
	cfg.FilterOnly = true
	w := dataframe.New(cfg)
	rows := w.Config().Rows
	// Recreate the per-partition expected outputs.
	payment, fare := referenceColumns(w)
	result, err := d.DumpObject("result")
	if err != nil {
		return err
	}
	for i := 0; i < threads; i++ {
		lo := rows * int64(i) / int64(threads)
		hi := rows * int64(i+1) / int64(threads)
		out := lo
		for r := lo; r < hi; r++ {
			if payment[r] == 1 {
				got := math.Float64frombits(binary.LittleEndian.Uint64(result[out*8:]))
				if got != fare[r] {
					return fmt.Errorf("mtrun: partition %d row %d: result %g, want %g", i, r, got, fare[r])
				}
				out++
			}
		}
	}
	return nil
}

// referenceColumns regenerates the input columns natively.
func referenceColumns(w *dataframe.Workload) (payment []int64, fare []float64) {
	return w.Columns()
}
