package planner

import (
	"reflect"

	"mira/internal/cache"
	"mira/internal/codegen"
	"mira/internal/ir"
	"mira/internal/profile"
	"mira/internal/rt"
	"mira/internal/session"
	"mira/internal/sim"
)

// ledger is the one place the planner executes a candidate, and its record
// of the candidates it has executed. Runs are bit-deterministic — same
// program, same configuration, same data, same outcome — so a candidate that
// comes back (iteration 3 re-deriving iteration 2's configuration once the
// scope has saturated; "section A at r" being "section B at 1−r" when two
// sections split the budget) is answered from the record instead of opening a
// second session.
//
// A ledger belongs to one Plan, Adapt or Measure call and to that call's
// workload: nothing is remembered across calls, so a different input is
// always measured.
type ledger struct {
	w Workload
	// runs holds one entry per session opened, builds one per compilation.
	runs   []ledgerRun
	builds []ledgerBuild
	// reused counts the requests answered from the record.
	reused int
	// forget makes every lookup miss. Only tests set it: it is the
	// differential oracle's "ledger off" arm.
	forget bool
}

func newLedger(w Workload) *ledger {
	return &ledger{w: w}
}

// ledgerRun is one executed candidate. Identity is the program's pointer —
// compile hands equal plans the same program, so no IR is ever compared —
// and what the runtime makes of the configuration: its geometry (sizes in
// whole lines and pages, everything else by value) and its carve-up byte
// total, the one thing read of the raw sizes (the budget checks). cfg is
// the configuration as first requested, which is the one that ran.
type ledgerRun struct {
	prog  *ir.Program
	cfg   rt.Config
	geom  rt.Config
	carve int64
	out   *outcome
}

// ledgerBuild is one compilation: src transformed by plan.
type ledgerBuild struct {
	src  *ir.Program
	plan *codegen.Plan
	out  *ir.Program
	err  error
}

// outcome is what a timed run leaves behind. A repeated candidate gets the
// same *outcome back, collector included: nothing may write to it once time
// has returned.
type outcome struct {
	// run is the session clock when the program returned; time is the clock
	// after the final flush — the figure candidates are compared by.
	run, time sim.Duration
	// secs holds each cache section's counters when the program returned.
	secs []cache.Stats
	// col is the run's profile (nil unless cfg.Profiling).
	col *profile.Collector
	err error
}

// compile is codegen.Apply, memoised per (source program, equal plan), so an
// equal plan yields the same *ir.Program and time can tell a repeated
// candidate by pointer.
func (l *ledger) compile(src *ir.Program, plan *codegen.Plan) (*ir.Program, error) {
	if !l.forget {
		for i := range l.builds {
			if b := &l.builds[i]; b.src == src && reflect.DeepEqual(b.plan, plan) {
				return b.out, b.err
			}
		}
	}
	out, err := codegen.Apply(src, plan)
	l.builds = append(l.builds, ledgerBuild{src, plan, out, err})
	return out, err
}

// time executes prog under cfg on the ledger's workload — fault-free, with
// the planner's swap policy, profiling into a fresh collector when
// cfg.Profiling is set — unless this ledger has already executed that very
// candidate, in which case the recorded outcome is the answer. "That very
// candidate" is decided on what the runtime builds, not on the bytes asked
// for: "A at 0.2 of 84 583 B, B the rest" is A = 16 916 B and its mirror "B at
// 0.8" is A = 16 917 B, and both are 8 lines of 2 KiB beside 33 — one cache,
// one run (rt.Config.Geometry).
func (l *ledger) time(prog *ir.Program, cfg rt.Config) *outcome {
	geom, carve := cfg.Geometry(), cfg.CarveUpBytes()
	if !l.forget {
		for i := range l.runs {
			if e := &l.runs[i]; e.prog == prog && e.carve == carve && reflect.DeepEqual(e.geom, geom) {
				l.reused++
				return e.out
			}
		}
	}
	out := l.execute(prog, cfg)
	l.runs = append(l.runs, ledgerRun{prog, cfg, geom, carve, out})
	return out
}

// profile is time with the compiler-inserted probes' cost accounting on:
// how every candidate that competes for acceptance is measured.
func (l *ledger) profile(prog *ir.Program, cfg rt.Config) *outcome {
	cfg.Profiling = true
	return l.time(prog, cfg)
}

// execute opens the session, runs it to completion and closes it.
func (l *ledger) execute(prog *ir.Program, cfg rt.Config) *outcome {
	var col *profile.Collector
	if cfg.Profiling {
		col = profile.NewCollector()
	}
	s, err := session.Open(session.Spec{
		Workload:  l.w,
		Program:   prog,
		Config:    cfg,
		Swap:      session.Fixed(SwapPolicy()),
		Collector: col,
	})
	if err != nil {
		return &outcome{err: err}
	}
	// The outcome holds copies (times, counters, the collector); the far
	// heap goes back for the next candidate's session to reuse.
	defer s.Close()
	run, err := s.Run()
	if err != nil {
		return &outcome{err: err}
	}
	out := &outcome{run: run, col: col, secs: make([]cache.Stats, s.RT.NumSections())}
	for i := range out.secs {
		out.secs[i] = s.RT.SectionStats(i)
	}
	st, err := s.Finish(false)
	if err != nil {
		return &outcome{err: err}
	}
	out.time = st.Time
	if col != nil {
		// Fold the transport's resilience counters into the profile.
		// Planner runs are fault-free, so these are zero unless a caller
		// wires a fault schedule into the runtime under profile. This is
		// the collector's last write.
		ns := st.Net
		col.RecordNet(profile.NetRecord{
			Retries: ns.Retries, Timeouts: ns.Timeouts,
			Corruptions: ns.Corruptions, BreakerTrips: ns.BreakerTrips,
			QueuedWritebacks: ns.QueuedWritebacks, DegradedReads: ns.DegradedReads,
			DegradedTime: ns.DegradedTime, BackoffTime: ns.BackoffTime,
		})
	}
	return out
}
