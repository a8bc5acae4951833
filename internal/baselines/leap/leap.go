// Package leap models Leap [Al Maruf & Chowdhury, ATC'20]: an online
// prefetcher for swap-based far memory that detects the process's
// *majority* access trend from the recent page-fault history and prefetches
// along it. It captures one global stride well but — as the paper's Fig. 15
// discussion notes — cannot track the interleaved per-object patterns Mira
// separates, and its trend detection adds fault-path latency relative to
// FastSwap's leaner datapath.
package leap

import (
	"mira/internal/farmem"
	"mira/internal/netmodel"
	"mira/internal/prefetch"
	"mira/internal/session"
	"mira/internal/sim"
	"mira/internal/workload"
)

// Options tunes the baseline.
type Options struct {
	// LocalBudget is the page pool size in bytes.
	LocalBudget int64
	// Window is the fault-history window for majority detection
	// (default 32).
	Window int
	// Depth is the prefetch depth along a detected trend (default 8).
	Depth int64
	// Net overrides the interconnect model.
	Net netmodel.Config
	// NodeCfg overrides the far node.
	NodeCfg farmem.NodeConfig
	// NoBatching disables the doorbell-batched prefetch gather (one read
	// per prefetched page, the pre-vectored-I/O datapath).
	NoBatching bool
}

// Prefetcher is the zoo's prefetch.Leap majority-trend policy adapted to the
// swap plane (kept as a named type here for the baseline's public API; the
// algorithm itself now lives in internal/prefetch so both planes can race
// it).
type Prefetcher struct{ p *prefetch.Leap }

// NewPrefetcher builds the trend detector.
func NewPrefetcher(window int, depth int64) *Prefetcher {
	return &Prefetcher{p: prefetch.NewLeap(window, depth)}
}

// OnFault records the fault and prefetches along the majority trend.
func (p *Prefetcher) OnFault(page int64, out []int64) []int64 { return p.p.OnMiss(page, out) }

// PerFaultOverhead is the trend-detection cost on every fault.
func (p *Prefetcher) PerFaultOverhead() sim.Duration { return p.p.PerMissOverhead() }

// Spec describes a Leap run of w: everything in the swap section with the
// majority-trend prefetcher. Callers add the run's fault domain, pool or
// tracer to the returned spec before opening it.
func Spec(w workload.Workload, opts Options) (session.Spec, error) {
	if opts.Window == 0 {
		opts.Window = 32
	}
	if opts.Depth == 0 {
		opts.Depth = 8
	}
	cfg, err := session.SwapOnly(w.Program(), opts.LocalBudget)
	if err != nil {
		return session.Spec{}, err
	}
	cfg.Net = opts.Net
	cfg.SwapCfg.BatchPrefetch = !opts.NoBatching
	return session.Spec{
		Workload: w,
		Config:   cfg,
		NodeCfg:  opts.NodeCfg,
		Swap:     session.Fixed(NewPrefetcher(opts.Window, opts.Depth)),
	}, nil
}
