//go:build !race

package sim

import "testing"

// TestYieldFastPathAllocatesNothing: a Yield that finds its caller still the
// lowest (time, id) is one scan of the clocks.
func TestYieldFastPathAllocatesNothing(t *testing.T) {
	g := NewThreadGroup(2, 0)
	s := NewScheduler(g)
	allocs := -1.0
	s.Spawn(func(th *Thread) error {
		allocs = testing.AllocsPerRun(1000, th.Yield)
		return nil
	})
	s.Spawn(func(th *Thread) error { return nil })
	g.Clock(1).Advance(Second) // thread 1 is runnable but never the pick while thread 0 lives
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("an elided Yield allocates %v times, want 0", allocs)
	}
}

// TestSwitchingYieldAllocatesNothing: a whole schedule (Spawn and Run) of
// strict round-robin threads, where every Yield is a real switch, allocates
// the same with 10 yields a thread as with 1000.
func TestSwitchingYieldAllocatesNothing(t *testing.T) {
	const threads = 4
	schedule := func(yields int) func() {
		return func() {
			g := NewThreadGroup(threads, 0)
			s := NewScheduler(g)
			for i := 0; i < threads; i++ {
				s.Spawn(func(th *Thread) error {
					for j := 0; j < yields; j++ {
						th.Yield()
						th.Clock().Advance(1)
					}
					return nil
				})
			}
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
		}
	}
	few, many := testing.AllocsPerRun(10, schedule(10)), testing.AllocsPerRun(10, schedule(1000))
	if few != many {
		t.Fatalf("%v allocations with 10 yields a thread, %v with 1000: Run allocates per yield", few, many)
	}
	t.Logf("%v allocations for %d threads", few, threads)
}
