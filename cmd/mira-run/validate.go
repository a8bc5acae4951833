package main

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"mira"
)

// runFlags collects the parsed flag values that constrain each other, plus
// the set of flag names the user passed explicitly (flag.Visit) — several
// combinations are only wrong when a flag was actually spelled out, not
// when it sits at its default.
type runFlags struct {
	System    string
	Mem       float64
	Plane     string
	Compress  string
	Offload   string
	Prefetch  string
	Threads   int
	Nodes     int
	Replicas  int
	FaultNode int
	Stripe    int64
	TierDRAM  int64
	Faults    string
	NoBatch   bool // -batch=false
	Set       map[string]bool
}

func (f runFlags) set(name string) bool { return f.Set[name] }

// threadsActive mirrors main's dispatch: an explicit -threads 1 still runs
// the multithreaded driver, so it constrains like any other thread count.
func (f runFlags) threadsActive() bool { return f.Threads > 1 || f.set("threads") }

func (f runFlags) compressOn() bool { return f.Compress != "" && f.Compress != "off" }
func (f runFlags) offloadOn() bool  { return f.Offload != "" && f.Offload != "off" }
func (f runFlags) faultsOn() bool   { return f.Faults != "" && f.Faults != "none" }
func (f runFlags) noBatch() bool    { return f.NoBatch }

// The drivers main dispatches a run to; exactly one runs.
const (
	plainRun   = "the plain run"
	linePlane  = "the line-plane -prefetch runner"
	pagePlane  = "the page-plane -prefetch runner"
	threadsRun = "the -threads driver"
)

// driver mirrors main's dispatch: -threads wins, then -prefetch picks the
// plane by system.
func (f runFlags) driver() string {
	switch {
	case f.threadsActive():
		return threadsRun
	case f.Prefetch == "":
		return plainRun
	case f.System == "mira":
		return linePlane
	default:
		return pagePlane
	}
}

// reader is one row of the table of which driver reads which flag: a flag
// in use on a driver or system that does not read it is an error, so no
// flag is ever silently dropped. A flag with several rows is read where any
// of them reads it.
type reader struct {
	flag    string
	used    func(runFlags) bool // nil: the flag was passed explicitly
	drivers []string            // nil: every driver
	systems []string            // nil: every system
}

// allRuns is every driver but -threads, which runs a fixed read-only batch
// on one node, fault-free.
var allRuns = []string{plainRun, linePlane, pagePlane}

// farSystems is every system with far memory, each on a pool of far nodes:
// all but native.
var farSystems = []string{"mira", "mira-swap", "fastswap", "leap", "aifm"}

// readers is the table. The line-plane runner plans with the plain run's
// planner options, so every planner flag reaches it; the page plane plans
// nothing. -batch=false turns off Mira's batched prefetch and write-back
// queue and Leap's page gathers; the plain fastswap, mira-swap, aifm and
// native runs batch nothing. A native run holds everything local: it has
// no far node to shard, to fault or to tier.
var readers = []reader{
	{"threads", runFlags.threadsActive, nil, []string{"mira", "fastswap"}},
	{"prefetch", func(f runFlags) bool { return f.Prefetch != "" }, []string{linePlane, pagePlane},
		[]string{"mira", "mira-swap", "fastswap", "leap"}},
	{"plane", func(f runFlags) bool { return f.Plane != "" }, []string{plainRun}, []string{"mira"}},
	{"compress", runFlags.compressOn, []string{plainRun, linePlane}, []string{"mira", "mira-swap"}},
	{"offload", runFlags.offloadOn, []string{plainRun, linePlane}, []string{"mira"}},
	{"batch", runFlags.noBatch, []string{plainRun}, []string{"mira", "leap"}},
	{"batch", runFlags.noBatch, []string{linePlane, pagePlane}, nil},
	{"faults", runFlags.faultsOn, allRuns, farSystems},
	{"nodes", func(f runFlags) bool { return f.Nodes > 0 }, allRuns, farSystems},
	{"tier-dram", func(f runFlags) bool { return f.TierDRAM > 0 }, allRuns, farSystems},
	{"private-sections", nil, []string{threadsRun}, []string{"mira"}},
	{"aifm-chunk", nil, nil, []string{"aifm"}},
	{"aifm-meta", nil, nil, []string{"aifm"}},
}

// check rejects a flag in use that f's system or driver does not read.
func (r reader) check(f runFlags) error {
	if r.used == nil && !f.set(r.flag) || r.used != nil && !r.used(f) {
		return nil
	}
	if r.systems != nil && !slices.Contains(r.systems, f.System) {
		return fmt.Errorf("-%s applies only with -system %s; system %q does not read it",
			r.flag, list(r.systems, "or"), f.System)
	}
	if d := f.driver(); r.drivers != nil && !slices.Contains(r.drivers, d) {
		return fmt.Errorf("-%s does not apply to %s; only %s read it", r.flag, d, list(r.drivers, "and"))
	}
	return nil
}

// list joins items as prose: "a", "a or b", "a, b or c".
func list(items []string, conj string) string {
	if n := len(items); n > 1 {
		return strings.Join(items[:n-1], ", ") + " " + conj + " " + items[n-1]
	}
	return strings.Join(items, "")
}

// validateFlags rejects bad values and flags the chosen run would not read,
// with one clear message each, before any simulation runs. The readers
// table and the value rules below are also the documentation of what
// composes with what.
func validateFlags(f runFlags) error {
	if err := (mira.PlanOptions{Compress: f.Compress, Offload: f.Offload, Plane: f.Plane}).Validate(); err != nil {
		return err
	}
	if f.Prefetch != "" && f.Prefetch != mira.PrefetchCompiled && !slices.Contains(mira.PrefetchPolicyNames(), f.Prefetch) {
		return fmt.Errorf("unknown -prefetch policy %q (%s)", f.Prefetch, prefetchHelp())
	}
	if f.Prefetch == mira.PrefetchCompiled && f.System != "mira" {
		return fmt.Errorf("-prefetch compiled is mira's line plane only; system %q runs the page plane (use -system mira)", f.System)
	}
	for _, r := range readers {
		err := r.check(f)
		if err != nil && !slices.ContainsFunc(readers, func(o reader) bool { return o.flag == r.flag && o.check(f) == nil }) {
			return err
		}
	}
	if f.set("fault-seed") && !f.faultsOn() {
		return fmt.Errorf("-fault-seed seeds the fault injector's draws; pass a -faults schedule as well")
	}
	if !(f.Mem > 0) || math.IsInf(f.Mem, 1) {
		return fmt.Errorf("-mem %g is not a positive, finite fraction of the footprint", f.Mem)
	}
	if f.Threads < 1 {
		return fmt.Errorf("-threads %d is not a positive thread count", f.Threads)
	}
	if f.Stripe <= 0 {
		return fmt.Errorf("-stripe %d is not a positive byte count", f.Stripe)
	}
	if f.TierDRAM < 0 {
		return fmt.Errorf("-tier-dram %d is negative (0 = no tier)", f.TierDRAM)
	}
	if f.Nodes <= 0 {
		for _, name := range []string{"replicas", "stripe", "fault-node"} {
			if f.set(name) {
				return fmt.Errorf("-%s only applies in cluster mode; pass -nodes as well", name)
			}
		}
		return nil
	}
	if f.Replicas < 1 || f.Replicas > f.Nodes {
		return fmt.Errorf("-replicas %d is outside [1, %d]: every range lives on at most -nodes homes", f.Replicas, f.Nodes)
	}
	if f.FaultNode < 0 || f.FaultNode >= f.Nodes {
		return fmt.Errorf("-fault-node %d is outside [0, %d): the pool's nodes are numbered from 0", f.FaultNode, f.Nodes)
	}
	if f.set("fault-node") && !f.faultsOn() {
		return fmt.Errorf("-fault-node picks the node a -faults schedule hits; pass a -faults schedule as well")
	}
	return nil
}

// prefetchHelp lists every -prefetch value: the runtime policies and the
// line plane's compiled arm.
func prefetchHelp() string {
	return fmt.Sprintf("%v on both planes, %s on mira's line plane only", mira.PrefetchPolicyNames(), mira.PrefetchCompiled)
}
