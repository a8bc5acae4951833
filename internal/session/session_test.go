package session

import (
	"strings"
	"testing"

	"mira/internal/apps/arraysum"
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
