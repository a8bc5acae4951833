//go:build !race

package apps_test

import (
	"testing"

	"mira/internal/apps/mcf"
	"mira/internal/apps/seqscan"
	"mira/internal/workload"
)

// TestVerifyOnOneNodeAllocatesNothing: on a single far node an oracle reads
// far memory where it lies and compares it with a reference computed once
// per workload — so after the first Verify, seqscan's and mcf's allocate
// nothing.
func TestVerifyOnOneNodeAllocatesNothing(t *testing.T) {
	for _, w := range []workload.Workload{
		seqscan.New(seqscan.Config{N: 4096, Seed: 1}),
		mcf.New(mcf.Config{Arcs: 2048, Nodes: 512, Iterations: 8, WalkLen: 32, Seed: 42}),
	} {
		s, _ := openOn(t, w, "node")
		v, d := w.(workload.Verifier), s.Dumper()
		verify := func() {
			if err := v.Verify(d); err != nil {
				t.Fatalf("%s: %v", w.Name(), err)
			}
		}
		verify()
		if n := testing.AllocsPerRun(10, verify); n != 0 {
			t.Errorf("%s: %v allocs per Verify, want 0", w.Name(), n)
		}
		s.Close()
	}
}
