package planner

import (
	"testing"

	"mira/internal/exec"
	"mira/internal/ir"
	"mira/internal/prefetch"
	"mira/internal/session"
	"mira/internal/sim"
	"mira/internal/transport"
)

// plainBackend forwards exec.Backend and nothing else. It hides the
// runtime's handle methods and every other optional capability, as a
// decorator that only knows exec.Backend does — the benchmark's traced pass
// drives its runs through one.
type plainBackend struct{ exec.Backend }

// TestAheadRidesPlainBackend: GPT-2's planned program prefetches its
// intrinsics' operands ahead, and it runs to the same simulated clock, wire
// traffic and prefetch counts through a plain decorator as on the bare
// runtime. The operands ahead travel on exec.Backend's PrefetchBatch, so a
// decorator that hides the runtime's handles cannot hide them.
func TestAheadRidesPlainBackend(t *testing.T) {
	w := ledgerApps()["gpt2"]()
	res, err := Plan(w, Options{LocalBudget: w.FullMemoryBytes() * 35 / 100})
	if err != nil {
		t.Fatal(err)
	}
	ahead := 0
	for _, f := range res.Program.Funcs {
		ir.Walk(f.Body, func(s ir.Stmt) bool {
			if st, ok := s.(*ir.Intrinsic); ok && len(st.Ahead) > 0 {
				ahead++
			}
			return true
		})
	}
	if ahead == 0 {
		t.Fatalf("no intrinsic of the planned program prefetches ahead:\n%s", ir.Print(res.Program))
	}
	type outcome struct {
		end   sim.Time
		bytes int64
		net   transport.Stats
		pf    prefetch.Efficacy
	}
	run := func(plain bool) outcome {
		s, err := session.Open(session.Spec{Workload: w, Program: res.Program, Config: res.Config, Swap: session.Fixed(SwapPolicy())})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		var be exec.Backend = s.RT
		if plain {
			be = plainBackend{s.RT}
		}
		cost := s.RT.Config().Cost
		ex, err := exec.New(res.Program, be, exec.Options{ComputeOp: cost.ComputeOp, FloatOp: cost.FloatOp, Params: w.Params()})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ex.Run(s.Clock()); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Finish(true); err != nil {
			t.Fatalf("plain %v: %v", plain, err)
		}
		return outcome{s.Clock().Now(), s.RT.BytesMoved(), s.RT.NetStats(), s.RT.PrefetchStats()}
	}
	bare, plain := run(false), run(true)
	if bare != plain {
		t.Errorf("through a plain decorator: %+v; on the bare runtime: %+v", plain, bare)
	}
	if bare.pf.Issued == 0 {
		t.Error("nothing was prefetched")
	}
}
