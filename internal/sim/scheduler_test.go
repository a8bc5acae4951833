package sim

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// traceRun records one interleaving as a string of (tid, time) steps: each
// thread performs its steps, yielding before every one, the way the
// executor yields before every memory operation.
func traceRun(t *testing.T, steps [][]Duration) string {
	t.Helper()
	trace, _ := traceRunResumes(t, steps)
	return trace
}

// traceRunResumes is traceRun that also reports how many times Run switched
// into a thread.
func traceRunResumes(t *testing.T, steps [][]Duration) (string, int) {
	t.Helper()
	g := NewThreadGroup(len(steps), 0)
	s := NewScheduler(g)
	var b strings.Builder
	for i := range steps {
		mine := steps[i]
		s.Spawn(func(th *Thread) error {
			for _, d := range mine {
				th.Yield()
				fmt.Fprintf(&b, "%d@%d ", th.ID(), th.Clock().Now())
				th.Clock().Advance(d)
			}
			return nil
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return b.String(), s.resumes
}

func TestSchedulerLowestTimeFirst(t *testing.T) {
	// Thread 0 takes long steps, thread 1 short ones: thread 1 must run
	// several steps while thread 0's clock is ahead.
	got := traceRun(t, [][]Duration{{10, 10}, {3, 3, 3, 3}})
	want := "0@0 1@0 1@3 1@6 1@9 0@10 "
	if got != want {
		t.Fatalf("interleaving %q, want %q", got, want)
	}
}

func TestSchedulerTieBreakByID(t *testing.T) {
	// All clocks equal at every step: the lowest id must always win.
	got := traceRun(t, [][]Duration{{5, 5}, {5, 5}, {5, 5}})
	want := "0@0 1@0 2@0 0@5 1@5 2@5 "
	if got != want {
		t.Fatalf("interleaving %q, want %q", got, want)
	}
}

// TestSchedulerDeterminism: the same bodies over the same clocks must
// produce byte-identical interleavings across runs.
func TestSchedulerDeterminism(t *testing.T) {
	steps := [][]Duration{{7, 2, 9}, {1, 1, 1, 20}, {4, 4}, {13}}
	first := traceRun(t, steps)
	for i := 0; i < 10; i++ {
		if got := traceRun(t, steps); got != first {
			t.Fatalf("run %d: interleaving %q differs from %q", i, got, first)
		}
	}
}

// TestSchedulerSymmetricThreadsTidInvariant: symmetric workers (one step
// list, taking one Serializer at every step, so every round opens with an
// exact tie that the tid decides) are spawned in rotated order. Which
// worker wins the ties moves with the rotation, so a completion time
// belongs to the tid and not to the worker; the group's numbers (elapsed
// time, the lock's total wait) must not depend on how tids are numbered.
func TestSchedulerSymmetricThreadsTidInvariant(t *testing.T) {
	work := []Duration{3, 1, 4, 1, 5, 9, 2, 6}
	const n, hold = 4, 2
	// run gives tid i the worker (i+rot)%n and reports each worker's
	// completion time.
	run := func(rot int) (finish []Time, elapsed, waited Duration) {
		g := NewThreadGroup(n, 0)
		s := NewScheduler(g)
		var lock Serializer
		finish = make([]Time, n)
		for i := 0; i < n; i++ {
			worker := (i + rot) % n
			s.Spawn(func(th *Thread) error {
				for _, d := range work {
					th.Yield()
					th.Clock().AdvanceTo(lock.Acquire(th.Clock().Now(), hold).Add(hold))
					th.Clock().Advance(d)
				}
				finish[worker] = th.Clock().Now()
				return nil
			})
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		_, waited = lock.Stats()
		return finish, g.Elapsed(), waited
	}
	byTid, elapsed, waited := run(0)
	if byTid[0] == byTid[n-1] {
		t.Fatalf("tids 0 and %d both finish at %d: the ties decided nothing, the rotation is not observable", n-1, byTid[0])
	}
	for rot := 1; rot < n; rot++ {
		finish, e, w := run(rot)
		if e != elapsed || w != waited {
			t.Fatalf("rotation %d: elapsed %v waited %v, unrotated %v %v", rot, e, w, elapsed, waited)
		}
		for i := 0; i < n; i++ {
			if worker := (i + rot) % n; finish[worker] != byTid[i] {
				t.Fatalf("rotation %d: worker %d on tid %d finished at %d, tid %d unrotated at %d", rot, worker, i, finish[worker], i, byTid[i])
			}
		}
	}
}

func TestSchedulerErrorLowestID(t *testing.T) {
	g := NewThreadGroup(3, 0)
	s := NewScheduler(g)
	errs := []error{nil, errors.New("thread 1 failed"), errors.New("thread 2 failed")}
	for i := 0; i < 3; i++ {
		e := errs[i]
		s.Spawn(func(th *Thread) error {
			th.Yield()
			th.Clock().Advance(Duration(th.ID()+1) * Microsecond)
			return e
		})
	}
	// All threads run to completion; the lowest-id error is reported.
	if err := s.Run(); err == nil || err.Error() != "thread 1 failed" {
		t.Fatalf("err = %v, want thread 1 failed", err)
	}
}

func TestSchedulerSpawnCountMismatch(t *testing.T) {
	g := NewThreadGroup(2, 0)
	s := NewScheduler(g)
	s.Spawn(func(*Thread) error { return nil })
	if err := s.Run(); err == nil {
		t.Fatal("mismatched spawn count accepted")
	}
}

func TestSchedulerPanicBecomesError(t *testing.T) {
	g := NewThreadGroup(2, 0)
	s := NewScheduler(g)
	s.Spawn(func(th *Thread) error { th.Yield(); return nil })
	s.Spawn(func(*Thread) error { panic("boom") })
	err := s.Run()
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want panic surfaced", err)
	}
}

// TestSchedulerYieldOffTheRunningThreadPanics: only the running thread may
// yield. From another thread's body the panic becomes that body's error;
// outside Run it reaches the caller.
func TestSchedulerYieldOffTheRunningThreadPanics(t *testing.T) {
	g := NewThreadGroup(2, 0)
	s := NewScheduler(g)
	var other *Thread
	s.Spawn(func(th *Thread) error { other.Yield(); return nil })
	other = s.Spawn(func(th *Thread) error { th.Yield(); return nil })
	err := s.Run()
	if err == nil || !strings.Contains(err.Error(), "sim: Yield on thread 1, which is not the running thread") {
		t.Fatalf("err = %v, want thread 0 to fail on thread 1's Yield", err)
	}
	for _, when := range []string{"before", "after"} {
		g := NewThreadGroup(1, 0)
		s := NewScheduler(g)
		th := s.Spawn(func(*Thread) error { return nil })
		if when == "after" {
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
		}
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "sim: Yield on thread 0") {
					t.Fatalf("Yield %s Run: recovered %v, want a sim: panic", when, r)
				}
			}()
			th.Yield()
		}()
	}
}

// TestSchedulerSwitchesOnlyWhenOvertaken counts Run's coroutine resumes: one
// per change of the running thread, none for a Yield whose caller is still
// the lowest (time, id).
func TestSchedulerSwitchesOnlyWhenOvertaken(t *testing.T) {
	// runs is the number of maximal same-tid runs in a trace of "tid@time "
	// steps: how often the running thread changed, counting the first.
	runs := func(trace string) int {
		n, last := 0, ""
		for _, step := range strings.Fields(trace) {
			if tid, _, _ := strings.Cut(step, "@"); tid != last {
				n, last = n+1, tid
			}
		}
		return n
	}
	for _, c := range []struct {
		steps [][]Duration
		want  int
	}{
		{[][]Duration{{10, 10}, {3, 3, 3, 3}}, 3},   // 0, then 1 four times, then 0
		{[][]Duration{{1, 2, 3, 4, 5, 6, 7, 8}}, 1}, // alone, a thread is never overtaken
		{[][]Duration{{5, 5}, {5, 5}, {5, 5}}, 6},   // strict round-robin: every step is a switch
	} {
		trace, resumes := traceRunResumes(t, c.steps)
		if resumes != c.want || resumes != runs(trace) {
			t.Errorf("%v: %d resumes for %q (%d runs), want %d", c.steps, resumes, trace, runs(trace), c.want)
		}
	}
}

// TestSchedulerRunLeavesNoGoroutine: every thread's coroutine is gone when
// Run returns, whether its body returned, failed or panicked. (Ten runs, and
// only growth fails: goroutines of earlier tests may still be exiting.)
func TestSchedulerRunLeavesNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		g := NewThreadGroup(3, 0)
		s := NewScheduler(g)
		s.Spawn(func(th *Thread) error { th.Yield(); th.Clock().Advance(5); th.Yield(); return nil })
		s.Spawn(func(th *Thread) error { th.Yield(); return errors.New("failed") })
		s.Spawn(func(th *Thread) error { th.Yield(); th.Clock().Advance(1); th.Yield(); panic("boom") })
		if err := s.Run(); err == nil {
			t.Fatal("no error from a failed and a panicked thread")
		}
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines after ten Runs, %d before", after, before)
	}
}

func TestSchedulerRunReentered(t *testing.T) {
	g := NewThreadGroup(1, 0)
	s := NewScheduler(g)
	s.Spawn(func(*Thread) error { return s.Run() })
	if err := s.Run(); err == nil || !strings.Contains(err.Error(), "reentered") {
		t.Fatalf("err = %v, want Run reentered", err)
	}
}
