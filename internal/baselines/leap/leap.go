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
	"mira/internal/swap"
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

// inKernel is prefetch.Leap detecting inside the fault handler: Spec puts
// the detection on the fault path, so the advisory fetch issues undelayed.
type inKernel struct{ *prefetch.Leap }

func (inKernel) PerMissOverhead() sim.Duration { return 0 }

// Spec describes a Leap run of w: everything in the swap section with the
// majority-trend prefetcher. Callers add the run's fault domain, pool or
// tracer to the returned spec before opening it. The trend detection is
// part of every major fault (SwapCfg.MajorFaultOverhead); both fault costs
// are set because the runtime fills in defaults only when the major one is
// zero. That times runs as the fault path's two back-to-back charges did,
// as no Leap run holds a SwapLock, whose hold time reads MajorFaultOverhead.
func Spec(w workload.Workload, opts Options) (session.Spec, error) {
	cfg, err := session.SwapOnly(w.Program(), opts.LocalBudget)
	if err != nil {
		return session.Spec{}, err
	}
	cfg.Net = opts.Net
	cfg.SwapCfg.BatchPrefetch = !opts.NoBatching
	pf := prefetch.NewLeap(opts.Window, opts.Depth)
	stock := swap.DefaultConfig(0)
	cfg.SwapCfg.MajorFaultOverhead = stock.MajorFaultOverhead + pf.PerMissOverhead()
	cfg.SwapCfg.MinorFaultOverhead = stock.MinorFaultOverhead
	return session.Spec{
		Workload: w,
		Config:   cfg,
		NodeCfg:  opts.NodeCfg,
		Swap:     session.Fixed(inKernel{pf}),
	}, nil
}
