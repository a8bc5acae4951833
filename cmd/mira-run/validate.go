package main

import (
	"fmt"
	"slices"

	"mira"
)

// runFlags collects the parsed flag values that constrain each other, plus
// the set of flag names the user passed explicitly (flag.Visit) — several
// combinations are only wrong when a flag was actually spelled out, not
// when it sits at its default.
type runFlags struct {
	System         string
	Plane          string
	Compress       string
	Offload        string
	OffloadChunk   int
	Prefetch       string
	PrefetchWindow int
	Threads        int
	Nodes          int
	TierDRAM       int64
	Faults         string
	Set            map[string]bool
}

func (f runFlags) set(name string) bool { return f.Set[name] }

// threadsActive mirrors main's dispatch: an explicit -threads 1 still runs
// the multithreaded driver, so it constrains like any other thread count.
func (f runFlags) threadsActive() bool { return f.Threads > 1 || f.set("threads") }

// validateFlags rejects contradictory flag combinations with one clear
// message each, before any simulation runs. Every rule here is also the
// documentation of what composes with what.
func validateFlags(f runFlags) error {
	switch f.Compress {
	case "", "off", "on", "auto":
	default:
		return fmt.Errorf("unknown -compress mode %q (off, on, auto)", f.Compress)
	}
	if f.Compress != "" && f.Compress != "off" && f.System != "mira" && f.System != "mira-swap" {
		return fmt.Errorf("-compress %s compresses mira's wire; system %q sends it raw (use -system mira or mira-swap)", f.Compress, f.System)
	}
	switch f.Plane {
	case "", "page", "line", "hybrid":
	default:
		return fmt.Errorf("unknown -plane mode %q (page, line, hybrid)", f.Plane)
	}
	if f.Plane != "" {
		if f.System != "mira" {
			return fmt.Errorf("-plane selects mira's data plane; system %q has only one (use -system mira)", f.System)
		}
		if f.Prefetch != "" {
			return fmt.Errorf("-plane and -prefetch are mutually exclusive: zoo policies pick their own plane")
		}
		if f.threadsActive() {
			return fmt.Errorf("-plane does not combine with -threads (the multithreaded driver plans its own sections)")
		}
	}
	switch f.Offload {
	case "", "off", "on", "auto":
	default:
		return fmt.Errorf("unknown -offload mode %q (off, on, auto)", f.Offload)
	}
	if f.Offload != "" && f.Offload != "off" {
		if f.System != "mira" {
			return fmt.Errorf("-offload ships compute through mira's planner; system %q cannot (use -system mira)", f.System)
		}
		if f.threadsActive() {
			return fmt.Errorf("-offload does not combine with -threads (the multithreaded driver runs a fixed batch, not the planner)")
		}
	}
	if f.set("offload-chunk") && (f.Offload == "" || f.Offload == "off") {
		return fmt.Errorf("-offload-chunk sizes the offload engine's streams; pass -offload on or -offload auto as well")
	}
	if (f.set("aifm-chunk") || f.set("aifm-meta")) && f.System != "aifm" {
		return fmt.Errorf("-aifm-chunk and -aifm-meta configure the AIFM library model; pass -system aifm as well")
	}
	if f.set("fault-seed") && (f.Faults == "" || f.Faults == "none") {
		return fmt.Errorf("-fault-seed seeds the fault injector's draws; pass a -faults schedule as well")
	}
	if f.set("private-sections") && (!f.threadsActive() || f.System != "mira") {
		return fmt.Errorf("-private-sections splits mira's multithreaded sections; pass -threads and -system mira as well")
	}
	if f.Prefetch != "" && f.Prefetch != mira.PrefetchCompiled && !slices.Contains(mira.PrefetchPolicyNames(), f.Prefetch) {
		return fmt.Errorf("unknown -prefetch policy %q (%s)", f.Prefetch, prefetchHelp())
	}
	if f.Prefetch == mira.PrefetchCompiled && f.System != "mira" {
		return fmt.Errorf("-prefetch compiled is mira's line plane only; system %q runs the page plane (use -system mira)", f.System)
	}
	if f.set("prefetch-window") && f.Prefetch != "programmed" {
		return fmt.Errorf("-prefetch-window sizes the programmed runner; pass -prefetch programmed as well")
	}
	if f.Prefetch != "" && f.threadsActive() {
		return fmt.Errorf("-prefetch does not combine with -threads")
	}
	if f.threadsActive() {
		if f.Faults != "" && f.Faults != "none" {
			return fmt.Errorf("-threads cannot combine with -faults")
		}
		if f.Nodes > 0 {
			return fmt.Errorf("-threads cannot combine with -nodes")
		}
	}
	if f.Nodes <= 0 {
		if f.TierDRAM > 0 {
			return fmt.Errorf("-tier-dram requires -nodes (the SSD tier lives under each cluster node's DRAM)")
		}
		for _, name := range []string{"replicas", "stripe", "fault-node"} {
			if f.set(name) {
				return fmt.Errorf("-%s only applies in cluster mode; pass -nodes as well", name)
			}
		}
	}
	return nil
}

// prefetchHelp lists every -prefetch value: the runtime policies and the
// line plane's compiled arm.
func prefetchHelp() string {
	return fmt.Sprintf("%v on both planes, %s on mira's line plane only", mira.PrefetchPolicyNames(), mira.PrefetchCompiled)
}
