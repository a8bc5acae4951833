package planner

import (
	"fmt"

	"mira/internal/sim"
)

// Adapt implements §3's input adaptation: the current compilation keeps
// serving invocations, but when a sampled input degrades performance beyond
// tolerance (e.g. 0.2 = 20% slower than the recorded FinalTime), a fresh
// optimization round runs against the new input "in the background" and the
// better of the two compilations is kept.
//
// It returns the compilation to use for subsequent invocations and whether
// a re-optimization was triggered.
func Adapt(prev *Result, w Workload, opts Options, tolerance float64) (*Result, bool, error) {
	if prev == nil {
		return nil, false, fmt.Errorf("planner: Adapt with nil previous result")
	}
	if tolerance <= 0 {
		tolerance = 0.2
	}

	// Measure the existing compilation on the sampled input.
	m := measure(prev, w, withDefaults(opts))
	if m.err != nil {
		return nil, false, fmt.Errorf("planner: adapt measurement: %w", m.err)
	}
	cur := m.time
	threshold := sim.Duration(float64(prev.FinalTime) * (1 + tolerance))
	if cur <= threshold {
		return prev, false, nil
	}

	// Degradation detected: run a fresh optimization round on the new
	// input.
	fresh, err := Plan(w, opts)
	if err != nil {
		return nil, false, err
	}
	if fresh.FinalTime < cur {
		return fresh, true, nil
	}
	// The old compilation still wins on the new input; keep it (but
	// record the re-optimization attempt).
	kept := *prev
	kept.FinalTime = cur
	return &kept, true, nil
}

// Measure runs an existing compilation against a (possibly different) input
// and returns the execution time. It is the measurement half of Adapt,
// exposed so harnesses can report how a stale compilation fares on a new
// input without triggering re-optimization.
func Measure(prev *Result, w Workload, opts Options) (sim.Duration, error) {
	if prev == nil {
		return 0, fmt.Errorf("planner: Measure with nil result")
	}
	m := measure(prev, w, withDefaults(opts))
	return m.time, m.err
}

// measure times prev's compilation on w with the probes off, on a ledger of
// its own: a new input is never answered from an old input's record.
func measure(prev *Result, w Workload, opts Options) *outcome {
	cfg := prev.Config
	cfg.Profiling = false
	return newLedger(w, opts).time(prev.Program, cfg)
}
