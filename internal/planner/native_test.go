package planner

import (
	"strings"
	"testing"

	"mira/internal/session"
)

// TestResidentChainTargetIsNative plans the benchmark's pointer-chasing
// cells and checks the native rule for chained targets: nodes compiles to
// native loads exactly where its section holds every line it can have —
// graph's and mcf's 8 B and 16 B spans at a quarter, and graph's whole
// footprint in 2 KiB lines (wholeIndirect) at full memory — and not where
// the section is smaller than the spans (mcf at a tenth) or native loads
// are masked. Every marked plan runs with no native fallback on its
// indirect section: the section never evicts, and the gathers cover each
// line's first touch.
func TestResidentChainTargetIsNative(t *testing.T) {
	for _, c := range []struct {
		name   string
		w      func() Workload
		frac   float64
		tech   TechniqueMask
		native bool
	}{
		{"graph@25", benchGraph, 0.25, TechniqueMask{}, true},
		{"mcf@25", benchMCF, 0.25, TechniqueMask{}, true},
		{"graph@100", benchGraph, 1.0, TechniqueMask{}, true},
		{"mcf@10", benchMCF, 0.10, TechniqueMask{}, false},
		{"graph@25/no-native", benchGraph, 0.25, TechniqueMask{NoNative: true}, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			w := c.w()
			res, err := Plan(w, Options{LocalBudget: int64(c.frac * float64(w.FullMemoryBytes())), Techniques: c.tech})
			if err != nil {
				t.Fatal(err)
			}
			op := res.Plan.Objects["nodes"]
			if op == nil || op.ChainedFrom == "" {
				t.Fatalf("nodes is not a chained target of the accepted plan: %+v", op)
			}
			idx := res.Config.Placements["nodes"].Section
			sec := res.Config.Sections[idx].Cache
			t.Logf("%s: %d B lines, %d B, native %v", sec.Name, sec.LineBytes, sec.SizeBytes, op.Native)
			if op.Native != c.native {
				t.Fatalf("nodes native %v, want %v", op.Native, c.native)
			}
			if !c.native {
				return
			}
			if !strings.HasPrefix(sec.Name, "ind-") {
				t.Fatalf("nodes is in section %q, want its indirect section", sec.Name)
			}
			s, err := session.Open(session.Spec{Workload: w, Program: res.Program, Config: res.Config, Swap: session.NoPrefetch})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if _, err := s.Run(); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Finish(true); err != nil {
				t.Fatal(err)
			}
			if n := s.RT.NativeFallbacks(idx); n != 0 {
				t.Errorf("%d native fallbacks on %s", n, sec.Name)
			}
		})
	}
}
