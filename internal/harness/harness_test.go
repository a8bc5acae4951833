package harness

import (
	"fmt"
	"testing"

	"mira/internal/apps/gpt2"
	"mira/internal/apps/graphtraverse"
	"mira/internal/baselines/aifm"
	"mira/internal/sim"
	"mira/internal/workload"
)

func testWorkload() *graphtraverse.Workload {
	return graphtraverse.New(graphtraverse.Config{Edges: 4096, Nodes: 4096, Passes: 1, Seed: 21})
}

func TestAllSystemsProduceIdenticalResults(t *testing.T) {
	w := testWorkload()
	budget := w.FullMemoryBytes() / 4
	for _, sys := range []System{Native, Mira, MiraSwap, FastSwap, Leap, AIFM} {
		res, err := Run(sys, w, Options{Budget: budget, Verify: true})
		if err != nil {
			t.Fatalf("%s: %v", sys, err)
		}
		if res.Failed {
			t.Logf("%s failed to execute at this budget: %s", sys, res.FailReason)
			continue
		}
		if res.Time <= 0 {
			t.Fatalf("%s: zero time", sys)
		}
		t.Logf("%-10s %v", sys, res.Time)
	}
}

// Every other GPT-2 configuration in the tree has dimensions that are
// multiples of four, which never reach the tails of exec's four-wide matmul
// kernels; this one has none that is, and must verify against the native
// oracle on the cache plane, the page plane and natively.
func TestGPT2OddDimensionsVerify(t *testing.T) {
	w := gpt2.New(gpt2.Config{Layers: 2, DModel: 10, DFF: 22, SeqLen: 7, Seed: 5})
	budget := w.FullMemoryBytes() * 35 / 100
	for _, sys := range []System{Native, Mira, FastSwap} {
		res, err := Run(sys, w, Options{Budget: budget, Verify: true})
		if err != nil {
			t.Fatalf("%s: %v", sys, err)
		}
		if res.Failed {
			t.Fatalf("%s failed to execute: %s", sys, res.FailReason)
		}
	}
}

func TestPaperOrderingAtQuarterMemory(t *testing.T) {
	// The paper's headline shape on the graph example (Fig. 5): Mira
	// beats FastSwap, Leap, and AIFM; native is the floor.
	w := testWorkload()
	budget := w.FullMemoryBytes() / 4
	times := map[System]sim.Duration{}
	for _, sys := range []System{Native, Mira, FastSwap, Leap, AIFM} {
		res, err := Run(sys, w, Options{Budget: budget})
		if err != nil {
			t.Fatalf("%s: %v", sys, err)
		}
		if res.Failed {
			t.Fatalf("%s unexpectedly failed: %s", sys, res.FailReason)
		}
		times[sys] = res.Time
	}
	if times[Mira] >= times[FastSwap] {
		t.Errorf("Mira (%v) not faster than FastSwap (%v)", times[Mira], times[FastSwap])
	}
	if times[Mira] >= times[Leap] {
		t.Errorf("Mira (%v) not faster than Leap (%v)", times[Mira], times[Leap])
	}
	if times[Mira] >= times[AIFM] {
		t.Errorf("Mira (%v) not faster than AIFM (%v)", times[Mira], times[AIFM])
	}
	if times[Native] >= times[Mira] {
		t.Errorf("native (%v) not the floor (Mira %v)", times[Native], times[Mira])
	}
	t.Logf("native=%v mira=%v fastswap=%v leap=%v aifm=%v",
		times[Native], times[Mira], times[FastSwap], times[Leap], times[AIFM])
}

func TestNativeInsensitiveToBudget(t *testing.T) {
	w := testWorkload()
	a, err := Run(Native, w, Options{Budget: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Native, w, Options{Budget: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if a.Time != b.Time {
		t.Fatalf("native time depends on budget: %v vs %v", a.Time, b.Time)
	}
}

func TestUnknownSystem(t *testing.T) {
	if _, err := Run(System("bogus"), testWorkload(), Options{Budget: 1 << 20}); err == nil {
		t.Fatal("unknown system accepted")
	}
}

func TestDeterminism(t *testing.T) {
	w := testWorkload()
	budget := w.FullMemoryBytes() / 3
	var prev sim.Duration
	for i := 0; i < 3; i++ {
		res, err := Run(FastSwap, testWorkload(), Options{Budget: budget})
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && res.Time != prev {
			t.Fatalf("run %d: %v != %v", i, res.Time, prev)
		}
		prev = res.Time
	}
	_ = w
}

// failingWorkload wraps the graph workload with a Verify that always
// rejects — the harness must surface verification failures as errors, per
// system, so a buggy runtime can never silently report a time.
type failingWorkload struct {
	*graphtraverse.Workload
}

func (failingWorkload) Verify(workload.ObjectDumper) error {
	return fmt.Errorf("intentional verification failure")
}

func TestVerificationFailureSurfaces(t *testing.T) {
	w := failingWorkload{testWorkload()}
	for _, sys := range []System{Native, MiraSwap, FastSwap, Leap, AIFM} {
		_, err := Run(sys, w, Options{Budget: w.FullMemoryBytes(), Verify: true})
		if err == nil {
			t.Errorf("%s: failing verifier accepted", sys)
		}
	}
}

func TestVerifySkippedWhenDisabled(t *testing.T) {
	w := failingWorkload{testWorkload()}
	if _, err := Run(Native, w, Options{Budget: w.FullMemoryBytes()}); err != nil {
		t.Fatalf("verify ran despite being disabled: %v", err)
	}
}

func TestAIFMOptionsPassthrough(t *testing.T) {
	w := testWorkload()
	lean, err := Run(AIFM, w, Options{Budget: w.FullMemoryBytes(), AIFM: aifm.Options{MetaPerObject: 8}})
	if err != nil {
		t.Fatal(err)
	}
	heavy, err := Run(AIFM, w, Options{Budget: w.FullMemoryBytes(), AIFM: aifm.Options{MetaPerObject: 4096}})
	if err != nil {
		t.Fatal(err)
	}
	if !heavy.Failed && !lean.Failed && heavy.Time <= lean.Time {
		t.Fatalf("heavier metadata not slower/failed: %v vs %v", heavy.Time, lean.Time)
	}
}
