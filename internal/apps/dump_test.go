package apps_test

import (
	"bytes"
	"testing"

	"mira/internal/baselines/aifm"
	"mira/internal/cluster"
	"mira/internal/farmem"
	"mira/internal/session"
	"mira/internal/workload"
)

// openOn opens w swap-only at half its footprint on one of the backends whose
// DumpObject answers differently — one far node (the node's bytes in place),
// a 4-node replicated pool (a copy assembled from the stripes), AIFM (its
// node's bytes in place) — and runs it once. ok=false: the backend does not
// run w.
func openOn(t *testing.T, w workload.Workload, backend string) (s *session.Session, ok bool) {
	t.Helper()
	if backend == "aifm" {
		if w.Name() == "gpt2" {
			return nil, false // AIFM has no tensor operations
		}
		r, err := aifm.New(w, aifm.Options{LocalBudget: 4 * w.FullMemoryBytes()})
		if err != nil {
			t.Fatal(err)
		}
		s = session.Over(r, w, w.Program(), nil)
	} else {
		cfg, err := session.SwapOnly(w.Program(), w.FullMemoryBytes()/2)
		if err != nil {
			t.Fatal(err)
		}
		if backend == "pool" {
			cfg.Cluster = &cluster.Options{Nodes: 4, Replicas: 2, Seed: 1, StripeBytes: 4096, NodeCfg: farmem.DefaultNodeConfig()}
		}
		if s, err = session.Open(session.Spec{Workload: w, Config: cfg, Swap: session.NoPrefetch}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Finish(false); err != nil {
		t.Fatal(err)
	}
	return s, true
}

// TestVerifyLeavesFarMemoryAlone: an oracle may read far memory in place, so
// it must only read — for all nine apps, on one node, a 4-node pool and
// AIFM, every far object is byte-identical after Verify to what it was
// before, and Verify passes.
func TestVerifyLeavesFarMemoryAlone(t *testing.T) {
	for _, w := range allWorkloads() {
		for _, backend := range []string{"node", "pool", "aifm"} {
			s, ok := openOn(t, w, backend)
			if !ok {
				continue
			}
			before, err := s.Dump()
			if err != nil {
				t.Fatal(err)
			}
			if err := w.(workload.Verifier).Verify(s.Dumper()); err != nil {
				t.Fatalf("%s on %s: %v", w.Name(), backend, err)
			}
			after, err := s.Dump()
			if err != nil {
				t.Fatal(err)
			}
			for name, img := range before {
				if !bytes.Equal(after[name], img) {
					t.Errorf("%s on %s: Verify changed object %q", w.Name(), backend, name)
				}
			}
			s.Close()
		}
	}
}

// TestDumpImagesOutliveTheSession: session.Dump's images are the session's
// far memory as it was, not a window onto it — after Close has handed the
// heap to the far side's free list and the next session of the same
// workload has taken it and loaded its initial data there, every image still
// reads what the first session left.
func TestDumpImagesOutliveTheSession(t *testing.T) {
	for _, w := range allWorkloads() {
		first, _ := openOn(t, w, "node")
		imgs, err := first.Dump()
		if err != nil {
			t.Fatal(err)
		}
		kept := map[string][]byte{}
		for name, img := range imgs {
			kept[name] = bytes.Clone(img)
		}
		first.Close()

		cfg, err := session.SwapOnly(w.Program(), w.FullMemoryBytes()/2)
		if err != nil {
			t.Fatal(err)
		}
		second, err := session.Open(session.Spec{Workload: w, Config: cfg, Swap: session.NoPrefetch})
		if err != nil {
			t.Fatal(err)
		}
		start, err := second.Dump()
		if err != nil {
			t.Fatal(err)
		}
		moved := false
		for name, img := range imgs {
			if !bytes.Equal(img, kept[name]) {
				t.Errorf("%s: the image of %q changed when the next session took the heap", w.Name(), name)
			}
			moved = moved || !bytes.Equal(start[name], kept[name])
		}
		if !moved {
			t.Fatalf("%s: the second session starts where the first ended: the test would see no reuse", w.Name())
		}
		second.Close()
	}
}
