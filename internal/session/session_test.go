package session

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"mira/internal/apps/arraysum"
	"mira/internal/baselines/aifm"
	"mira/internal/cluster"
	"mira/internal/farmem"
)

// TestSwapPolicyHasNoDefault: a configuration with a swap pool opens only
// when the caller states what runs on it.
func TestSwapPolicyHasNoDefault(t *testing.T) {
	w := arraysum.New(arraysum.Config{N: 1 << 10, Seed: 1})
	cfg, err := SwapOnly(w.Program(), w.FullMemoryBytes()/2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Spec{Workload: w, Config: cfg}); err == nil || !strings.Contains(err.Error(), "swap policy") {
		t.Fatalf("Open without a swap policy: err = %v", err)
	}
	s, err := Open(Spec{Workload: w, Config: cfg, Swap: NoPrefetch})
	if err != nil {
		t.Fatal(err)
	}
	ran, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Finish(true)
	if err != nil {
		t.Fatal(err)
	}
	if ran <= 0 || st.Time < ran || st.Messages == 0 {
		t.Fatalf("run %v, finished %v, %d messages", ran, st.Time, st.Messages)
	}
}

// TestRunThreadsLeavesClockAtJoin: after a threaded run the session clock
// stands at the fork-join time, so Finish flushes after every thread.
func TestRunThreadsLeavesClockAtJoin(t *testing.T) {
	w := arraysum.New(arraysum.Config{N: 1 << 10, Seed: 1})
	cfg, err := SwapOnly(w.Program(), w.FullMemoryBytes()/2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(Spec{Workload: w, Config: cfg, Swap: NoPrefetch})
	if err != nil {
		t.Fatal(err)
	}
	elapsed, per, err := RunThreads([]Thread{{S: s, Reps: 1}, {S: s, Reps: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(per) != 2 || per[1] != elapsed || per[0] >= per[1] {
		t.Fatalf("elapsed %v, per-thread %v", elapsed, per)
	}
	if got := s.Clock().Now().Sub(0); got != elapsed {
		t.Fatalf("session clock at %v after a join at %v", got, elapsed)
	}
	if _, err := s.Finish(true); err != nil {
		t.Fatal(err)
	}
}

// openHalf opens w swap-only at half its footprint, on one far node or on a
// replicated pool.
func openHalf(t *testing.T, w *arraysum.Workload, pool bool) *Session {
	t.Helper()
	cfg, err := SwapOnly(w.Program(), w.FullMemoryBytes()/2)
	if err != nil {
		t.Fatal(err)
	}
	if pool {
		cfg.Cluster = &cluster.Options{Nodes: 2, Replicas: 2, Seed: 1, StripeBytes: 4096, NodeCfg: farmem.DefaultNodeConfig()}
	}
	s, err := Open(Spec{Workload: w, Config: cfg, Swap: NoPrefetch})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCloseReleasesAndRefuses: Close hands the far memory back — nothing
// stays allocated on the node or on any pool member, whether the backend is
// the Mira runtime or AIFM's object cache — any number of times, and what
// reads far memory afterwards fails loudly instead of reading whatever the
// next session put there: Finish and Dump by name, an oracle that goes to
// the backend directly by the far side's ErrUnmapped.
func TestCloseReleasesAndRefuses(t *testing.T) {
	opens := map[string]func(t *testing.T, w *arraysum.Workload) *Session{
		"one node": func(t *testing.T, w *arraysum.Workload) *Session { return openHalf(t, w, false) },
		"pool":     func(t *testing.T, w *arraysum.Workload) *Session { return openHalf(t, w, true) },
		"aifm": func(t *testing.T, w *arraysum.Workload) *Session {
			r, err := aifm.New(w, aifm.Options{LocalBudget: 4 * w.FullMemoryBytes()})
			if err != nil {
				t.Fatal(err)
			}
			return Over(r, w, w.Program(), nil)
		},
	}
	for name, open := range opens {
		t.Run(name, func(t *testing.T) {
			w := arraysum.New(arraysum.Config{N: 1 << 10, Seed: 1})
			s := open(t, w)
			if _, err := s.Run(); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Finish(true); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Dump(); err != nil {
				t.Fatal(err)
			}
			s.Close()
			s.Close()
			if got := s.be.Pool().AllocatedBytes(); got != 0 {
				t.Fatalf("%d bytes still allocated after Close", got)
			}
			if _, err := s.Finish(true); err == nil || !strings.Contains(err.Error(), "after Close") {
				t.Fatalf("Finish after Close: %v", err)
			}
			if _, err := s.Dump(); err == nil || !strings.Contains(err.Error(), "after Close") {
				t.Fatalf("Dump after Close: %v", err)
			}
			if err := w.Verify(s.Dumper()); !errors.Is(err, farmem.ErrUnmapped) {
				t.Fatalf("Verify after Close: %v, want ErrUnmapped", err)
			}
		})
	}
}

// TestConcurrentOpenCloseRace: sessions of one workload open, run, verify and
// close on several goroutines at once, sharing the workload's data image and
// the far side's free list. Every run must verify — a recycled region is a
// fresh one — and the race detector must stay quiet.
func TestConcurrentOpenCloseRace(t *testing.T) {
	w := arraysum.New(arraysum.Config{N: 1 << 10, Seed: 1})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(pool bool) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				cfg, err := SwapOnly(w.Program(), w.FullMemoryBytes()/2)
				if err != nil {
					t.Error(err)
					return
				}
				if pool {
					cfg.Cluster = &cluster.Options{Nodes: 2, Replicas: 2, Seed: 1, StripeBytes: 4096, NodeCfg: farmem.DefaultNodeConfig()}
				}
				s, err := Open(Spec{Workload: w, Config: cfg, Swap: NoPrefetch})
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := s.Run(); err != nil {
					t.Error(err)
				}
				if _, err := s.Finish(true); err != nil {
					t.Error(err)
				}
				s.Close()
			}
		}(g%2 == 1)
	}
	wg.Wait()
}
