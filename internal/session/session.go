// Package session is the run driver: the one place a runtime is constructed
// and a program executed on it. Every program-on-runtime execution — the
// planner's timing and sampling runs, the harness cells, the multithreaded
// and serving drivers, the figure generators, the swap baselines — goes
// through the same sequence:
//
//	Open:   rt.New → Bind → swap policy → Init → trace / shared-link attach
//	Run:    exec.New → Run, on the session clock or on scheduler threads
//	Finish: FlushAll → optional Verify → Stats
//	Close:  the far memory goes back to the far side's free list
//
// so the configuration the planner measured is, by construction, the
// configuration everyone else executes. The swap pool's prefetch policy is
// part of that configuration and has no default: a caller states what it
// runs (planner.SwapPolicy for a plan as it was timed, session.NoPrefetch for
// none).
package session

import (
	"bytes"
	"fmt"

	"mira/internal/cluster"
	"mira/internal/exec"
	"mira/internal/ir"
	"mira/internal/netmodel"
	"mira/internal/prefetch"
	"mira/internal/profile"
	"mira/internal/rt"
	"mira/internal/sim"
	"mira/internal/trace"
	"mira/internal/transport"
	"mira/internal/workload"
)

// SwapPolicy builds the swap pool's page prefetch policy for a bound runtime
// (policies lowered from the program need its address layout).
type SwapPolicy func(r *rt.Runtime) (prefetch.Policy, error)

// Fixed is the SwapPolicy that installs pf as is.
func Fixed(pf prefetch.Policy) SwapPolicy {
	return func(*rt.Runtime) (prefetch.Policy, error) { return pf, nil }
}

// NoPrefetch states that nothing prefetches on the swap pool.
var NoPrefetch = Fixed(prefetch.None{})

// Spec describes one execution environment.
type Spec struct {
	// Workload supplies the data (Init), the entry parameters and — when
	// Program is nil — the program.
	Workload workload.Workload
	// Program is the program to bind and run: a planner's compiled clone, a
	// merged replica set. Nil runs Workload.Program().
	Program *ir.Program
	// Config is the runtime configuration. Without a Cluster it runs on the
	// one-node testbed pool rt.New builds.
	Config rt.Config
	// Swap states what runs on the swap pool. Required whenever the bound
	// configuration has one.
	Swap SwapPolicy
	// Trace, when non-nil, instruments the runtime's whole data path.
	Trace *trace.Tracer
	// Link, when non-nil, replaces the runtime's private link with a shared
	// one (threads with private sections, co-located tenants).
	Link *netmodel.Bandwidth
	// Collector, when non-nil, receives the executor's profiling events.
	Collector *profile.Collector
}

// Backend is what a session drives: the Mira runtime, or a baseline with its
// own object cache (AIFM). Either keeps its far memory on a pool of far
// nodes, which the session reads its counters from and releases on Close.
type Backend interface {
	exec.Backend
	workload.ObjectDumper
	FlushAll(clk *sim.Clock) error
	Pool() *cluster.Pool
	SetTrace(tr *trace.Tracer)
}

// Session is one bound, initialized runtime plus the clock single-threaded
// runs advance.
type Session struct {
	// RT is the Mira runtime, nil when the session wraps a foreign backend.
	RT *rt.Runtime

	be     Backend
	w      workload.Workload
	prog   *ir.Program
	col    *profile.Collector
	clk    *sim.Clock
	closed bool
}

// Open builds the runtime spec describes, binds the program, installs the
// stated swap policy and loads the workload's data. Close the session when
// its results have been read (defer s.Close() right after a successful
// Open).
func Open(spec Spec) (*Session, error) {
	prog := spec.Program
	if prog == nil {
		prog = spec.Workload.Program()
	}
	r, err := rt.New(spec.Config, nil)
	if err != nil {
		return nil, err
	}
	if err := r.Bind(prog); err != nil {
		return nil, err
	}
	if r.HasSwap() {
		if spec.Swap == nil {
			return nil, fmt.Errorf("session: %s has a swap pool but no swap policy was stated", spec.Workload.Name())
		}
		pf, err := spec.Swap(r)
		if err != nil {
			return nil, err
		}
		r.SwapPrefetcher(pf)
	}
	if err := spec.Workload.Init(r); err != nil {
		return nil, err
	}
	if spec.Link != nil {
		r.ShareBandwidth(spec.Link)
	}
	s := Over(r, spec.Workload, prog, spec.Trace)
	s.RT, s.col = r, spec.Collector
	return s, nil
}

// Over wraps an already-built, already-initialized backend (AIFM) so it
// shares Run, Finish and Close.
func Over(be Backend, w workload.Workload, prog *ir.Program, tr *trace.Tracer) *Session {
	be.SetTrace(tr)
	return &Session{be: be, w: w, prog: prog, clk: sim.NewClock(0)}
}

// Close ends the session and returns the backend's far memory — every
// pool member's regions — to the far side's free list
// (farmem.Node.Release), where the next session's allocations of the same
// sizes find it instead of making and zeroing their own, and the storage of
// the runtime's sections and swap pool to cache's free list
// (rt.Runtime.Close). Everything worth keeping must have been read before:
// Finish and Dump refuse a closed session, and the far side answers
// farmem.ErrUnmapped to anything that still reaches it. Close is
// idempotent. A session that is never closed is only not recycled.
func (s *Session) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.Pool().Release()
	if s.RT != nil {
		s.RT.Close()
	}
}

// errClosed is what a closed session answers to Finish and Dump.
func (s *Session) errClosed(op string) error {
	return fmt.Errorf("session: %s of %s after Close: its far memory was released", op, s.w.Name())
}

// Clock is the session clock: Run advances it, Finish flushes on it.
func (s *Session) Clock() *sim.Clock { return s.clk }

// exec runs prog once on clk against the session's backend.
func (s *Session) exec(clk *sim.Clock, prog *ir.Program, params map[string]exec.Value, yield func()) error {
	opt := exec.Options{Collector: s.col, Params: params, Yield: yield}
	if s.RT != nil {
		cost := s.RT.Config().Cost
		opt.ComputeOp, opt.FloatOp = cost.ComputeOp, cost.FloatOp
	}
	ex, err := exec.New(prog, s.be, opt)
	if err != nil {
		return err
	}
	_, err = ex.Run(clk)
	return err
}

// Run executes the program once on the session clock and reports the
// clock's reading: the elapsed time of every Run so far, before any flush.
func (s *Session) Run() (sim.Duration, error) {
	if err := s.exec(s.clk, s.prog, s.w.Params(), nil); err != nil {
		return 0, err
	}
	return s.clk.Now().Sub(0), nil
}

// Exec executes the program once on clk — one request of a scheduler thread
// — calling yield before every memory operation.
func (s *Session) Exec(clk *sim.Clock, yield func()) error {
	return s.exec(clk, s.prog, s.w.Params(), yield)
}

// Thread is one simulated thread of RunThreads.
type Thread struct {
	// S is the session the thread executes against (nil for a thread that
	// touches no runtime).
	S *Session
	// Program and Params override S's program and the workload's entry
	// parameters (a replica's entry clone, a partition's bounds).
	Program *ir.Program
	Params  map[string]exec.Value
	// Reps is how many times the default body executes the program back to
	// back.
	Reps int
	// Body, when non-nil, replaces the default body. yield is the thread's
	// scheduler yield (see RunThreads).
	Body func(th *sim.Thread, yield func()) error
}

// RunThreads runs the threads on one deterministic scheduler (lowest
// (virtual time, id) next) and reports the fork-join time and each thread's
// completion time. Every thread's yield re-asserts its identity on its
// runtime after each resume: the runtime attributes cache events to the
// active tid, and another thread ran in between. Afterwards every session
// clock stands at the join, so Finish flushes on a post-join clock.
func RunThreads(threads []Thread) (sim.Duration, []sim.Duration, error) {
	g := sim.NewThreadGroup(len(threads), 0)
	sch := sim.NewScheduler(g)
	for i := range threads {
		t := threads[i]
		sch.Spawn(func(th *sim.Thread) error {
			yield := th.Yield
			if t.S != nil && t.S.RT != nil {
				yield = func() {
					th.Yield()
					t.S.RT.SetActiveTid(th.ID())
				}
			}
			if t.Body != nil {
				return t.Body(th, yield)
			}
			prog, params := t.Program, t.Params
			if prog == nil {
				prog = t.S.prog
			}
			if params == nil {
				params = t.S.w.Params()
			}
			for rep := 0; rep < t.Reps; rep++ {
				if err := t.S.exec(th.Clock(), prog, params, yield); err != nil {
					return err
				}
			}
			return nil
		})
	}
	if err := sch.Run(); err != nil {
		return 0, nil, err
	}
	per := make([]sim.Duration, len(threads))
	for i := range per {
		per[i] = g.Clock(i).Now().Sub(0)
	}
	join := g.Join()
	for _, t := range threads {
		if t.S != nil {
			t.S.clk.AdvanceTo(join)
		}
	}
	return g.Elapsed(), per, nil
}

// Stats is a finished run's counter block.
type Stats struct {
	// Time is the session clock after the final flush.
	Time sim.Duration
	// Net reports the transport's resilience counters (retries, timeouts,
	// breaker trips, degraded-mode activity), summed across node links.
	Net transport.Stats
	// Cluster carries the per-node counters of the run's pool, ordered by
	// node ID: one row on a one-node pool.
	Cluster []cluster.NodeStats
	// Messages counts link-level transfers, summed across node links — the
	// metric vectored I/O collapses.
	Messages int64
	// BytesMoved counts the bytes that crossed the interconnect.
	BytesMoved int64
	// BytesOnWire equals BytesMoved: what actually crossed, post-codec.
	// Named separately so reports read next to BytesEffective.
	BytesOnWire int64
	// BytesEffective adds back the bytes the wire codecs kept off the
	// link (transport.Stats.WireSaved): the pre-compression data volume.
	// Equal to BytesOnWire when compression is off.
	BytesEffective int64
	// Prefetch aggregates the prefetch efficacy counters across both
	// planes (cache sections + swap pool).
	Prefetch prefetch.Efficacy
	// DemandMisses counts the demand misses the run still paid (section
	// misses + swap major faults) — the denominator of prefetch coverage.
	DemandMisses int64
}

// Finish flushes every dirty line and page on the session clock, checks the
// output against the workload's native oracle when verify is set (and the
// workload has one), and reports the run's counters. Prefetch and
// DemandMisses are the Mira runtime's; a foreign backend (AIFM) prefetches
// nothing and leaves them zero.
func (s *Session) Finish(verify bool) (Stats, error) {
	if s.closed {
		return Stats{}, s.errClosed("Finish")
	}
	if err := s.be.FlushAll(s.clk); err != nil {
		return Stats{}, err
	}
	if v, ok := s.w.(workload.Verifier); ok && verify {
		if err := v.Verify(s.be); err != nil {
			return Stats{}, err
		}
	}
	p := s.Pool()
	st := Stats{Time: s.clk.Now().Sub(0), Net: p.Stats(), Cluster: p.NodeStats(), Messages: p.Messages(), BytesMoved: p.BytesMoved()}
	st.BytesOnWire = st.BytesMoved
	st.BytesEffective = st.BytesMoved + st.Net.WireSaved
	if r := s.RT; r != nil {
		st.Prefetch = r.PrefetchStats()
		st.DemandMisses = r.MissCount()
	}
	return st, nil
}

// Dump returns a copy of the current contents of every far-placed object —
// the integrity image two runs are compared by, which outlives the session:
// a backend's DumpObject may answer with its far memory in place, and Close
// hands that memory to the next session. Call after Finish to include
// cached state.
func (s *Session) Dump() (map[string][]byte, error) {
	if s.closed {
		return nil, s.errClosed("Dump")
	}
	out := map[string][]byte{}
	for _, o := range s.prog.Objects {
		if o.Local {
			continue
		}
		d, err := s.be.DumpObject(o.Name)
		if err != nil {
			return nil, fmt.Errorf("session: dump %q: %w", o.Name, err)
		}
		out[o.Name] = bytes.Clone(d)
	}
	return out, nil
}

// Pool is the far side the session's backend keeps its memory on.
func (s *Session) Pool() *cluster.Pool { return s.be.Pool() }

// Dumper exposes the backend's object contents to oracle checks that address
// objects by other names than the workload's own (merged replicas).
func (s *Session) Dumper() workload.ObjectDumper { return s.be }

// Native places every object in local memory: native execution on full local
// memory, the figures' normalization denominator and the oracles' reference.
func Native(prog *ir.Program) rt.Config {
	placements := map[string]rt.Placement{}
	var full int64
	for _, o := range prog.Objects {
		placements[o.Name] = rt.Placement{Kind: rt.PlaceLocal}
		full += o.SizeBytes()
	}
	return rt.Config{LocalBudget: full + (1 << 20), Placements: placements}
}

// SwapOnly is the generic swap configuration every object starts in (§3):
// local objects pinned, everything else paged through one pool filling the
// rest of budget.
func SwapOnly(prog *ir.Program, budget int64) (rt.Config, error) {
	local := prog.LocalBytes()
	pool := budget - local
	if pool <= 0 {
		return rt.Config{}, fmt.Errorf("local objects (%d bytes) exceed budget %d", local, budget)
	}
	return rt.Config{
		LocalBudget: budget,
		SwapPool:    pool,
		Placements:  map[string]rt.Placement{},
	}, nil
}
