package figures

import (
	"fmt"

	"mira/internal/apps/gpt2"
	"mira/internal/mtrun"
)

func init() {
	register("fig24", "Read-only multithreading scaling (GPT-2)", fig24)
	register("fig25", "Writable-shared multithreading (DataFrame filter)", fig25)
}

func mtThreads(scale Scale) []int {
	if scale == Quick {
		return []int{1, 2, 4}
	}
	return []int{1, 2, 4, 8}
}

// fig24: fixed total inference work divided across threads; y = speedup
// over the same system at one thread. The model must be large enough that
// per-thread budget shares still hold a layer's working set, so both
// scales use the full-size transformer (Quick only trims the thread
// sweep).
func fig24(scale Scale) (*Figure, error) {
	cfg := gpt2Cfg(Full)
	w := gpt2.New(cfg)
	budget := w.FullMemoryBytes()
	fig := &Figure{XLabel: "threads", YLabel: "speedup over 1 thread (same system)"}
	for _, mode := range []mtrun.Mode{mtrun.MiraPrivate, mtrun.MiraShared, mtrun.FastSwapShared} {
		s := Series{Name: string(mode)}
		var t1 float64
		for _, n := range mtThreads(scale) {
			res, err := mtrun.ReadOnlyScaling(mode, gpt2.New(cfg), budget, n)
			if err != nil {
				return nil, fmt.Errorf("%s x%d: %w", mode, n, err)
			}
			res.Close()
			if n == 1 {
				t1 = float64(res.Time)
			}
			s.X = append(s.X, float64(n))
			s.Y = append(s.Y, t1/float64(res.Time))
		}
		fig.Series = append(fig.Series, s)
	}
	fig.Notes = append(fig.Notes,
		"threads interleave on the deterministic virtual-time scheduler: link occupancy, swap-lock queueing, and shared-section eviction interference are emergent from event order",
		"mira-unopt binds every thread's replica to one conservative shared section set, so its gap below mira is cross-thread eviction interference, not a closed-form model")
	return fig, nil
}

// fig25: the shared-write filter partitioned across threads.
func fig25(scale Scale) (*Figure, error) {
	cfg := dataframeCfg(scale)
	w0Full := int64(cfg.Rows) * 8 * 5
	budget := w0Full / 3
	fig := &Figure{XLabel: "threads", YLabel: "speedup over 1 thread (same system)"}
	for _, mode := range []mtrun.Mode{mtrun.MiraPrivate, mtrun.FastSwapShared, mtrun.AIFMShared} {
		s := Series{Name: string(mode)}
		var t1 float64
		for _, n := range mtThreads(scale) {
			res, err := mtrun.SharedWriteFilter(mode, cfg, budget, n)
			if err != nil {
				return nil, fmt.Errorf("%s x%d: %w", mode, n, err)
			}
			res.Close()
			if n == 1 {
				t1 = float64(res.Time)
			}
			s.X = append(s.X, float64(n))
			s.Y = append(s.Y, t1/float64(res.Time))
		}
		fig.Series = append(fig.Series, s)
	}
	fig.Notes = append(fig.Notes,
		"threads filter disjoint row partitions into one shared result vector (Mira: shared fully-associative section, §4.6)",
		"interleaved threads contend on shared state in event order: FastSwap queues on the kernel fault lock, AIFM on its object cache's runtime lock")
	return fig, nil
}
