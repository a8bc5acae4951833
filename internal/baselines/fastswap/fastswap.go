// Package fastswap models FastSwap [Amaro et al., EuroSys'20]: a
// kernel-swap-based far-memory system with an optimized fault datapath and
// Linux-style cluster readahead. Like all page-swap systems it is agnostic
// to program semantics (§2.1): every object lives in one 4 KB-paged region,
// prefetching follows faulting page adjacency only, and eviction is global
// approximate LRU.
package fastswap

import (
	"mira/internal/prefetch"
	"mira/internal/session"
	"mira/internal/workload"
)

// Options tunes the baseline.
type Options struct {
	// LocalBudget is the page pool size in bytes.
	LocalBudget int64
}

// readaheadPages is the number of following pages pulled on each fault
// (Linux swap cluster readahead).
const readaheadPages = 2

// Readahead is the zoo's cluster readahead policy, which FastSwap runs on
// every fault. The name stays for callers that spell it this way.
type Readahead = prefetch.Readahead

// Spec describes a FastSwap run of w: everything in the swap section (the
// runtime's stock fault path is FastSwap-calibrated), cluster readahead on
// every fault. Callers add the run's fault domain, pool or tracer to the
// returned spec before opening it.
func Spec(w workload.Workload, opts Options) (session.Spec, error) {
	cfg, err := session.SwapOnly(w.Program(), opts.LocalBudget)
	if err != nil {
		return session.Spec{}, err
	}
	return session.Spec{
		Workload: w,
		Config:   cfg,
		Swap:     session.Fixed(Readahead{N: readaheadPages}),
	}, nil
}

// New opens a FastSwap session for w.
func New(w workload.Workload, opts Options) (*session.Session, error) {
	spec, err := Spec(w, opts)
	if err != nil {
		return nil, err
	}
	return session.Open(spec)
}
