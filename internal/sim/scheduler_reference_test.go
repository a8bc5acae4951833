package sim

// The goroutine-per-thread scheduler that sim.Scheduler replaced, kept
// verbatim (names prefixed ref) as the oracle of
// TestSchedulerMatchesChannelReference: every Yield is a handoff to the
// scheduler goroutine and back over two unbuffered channels, so it never
// decides anything locally.

import (
	"fmt"
	"strings"
	"testing"
)

// refScheduler interleaves simulated threads deterministically on virtual
// time: it always resumes the not-yet-finished thread whose clock shows the
// lowest instant, breaking ties by thread id (lowest wins). Threads hand
// control back at every memory-operation boundary via refThread.Yield, so
// shared-resource state (cache sections, the link's busy horizon, the swap
// lock) is mutated in virtual-time event order — contention is emergent
// rather than modeled in closed form.
//
// Exactly one thread body runs at any real instant: the scheduler and each
// thread goroutine alternate through an unbuffered channel handoff, so the
// interleaving carries no Go-scheduler or wall-clock nondeterminism and the
// same bodies over the same clocks replay byte-identically.
type refScheduler struct {
	g       *ThreadGroup
	threads []*refThread
	running bool
}

// refThread is one simulated thread registered with a refScheduler. Its body
// receives the refThread and must call Yield at every point where another
// thread could observe or contend with its next shared-state operation.
type refThread struct {
	id     int
	clk    *Clock
	body   func(*refThread) error
	resume chan struct{}
	paused chan struct{}
	done   bool
	err    error
}

// ID reports the thread's scheduler-assigned id (registration order).
func (t *refThread) ID() int { return t.id }

// Clock returns the thread's private virtual clock.
func (t *refThread) Clock() *Clock { return t.clk }

// Yield hands control back to the scheduler. The calling thread blocks
// until it is again the runnable thread with the lowest (time, id).
func (t *refThread) Yield() {
	t.paused <- struct{}{}
	<-t.resume
}

// newRefScheduler creates a scheduler over the group's clocks: thread i of
// the schedule owns g.Clock(i). Register exactly g.N() bodies with Spawn,
// then call Run.
func newRefScheduler(g *ThreadGroup) *refScheduler {
	return &refScheduler{g: g}
}

// Spawn registers the next thread body; ids are assigned in call order.
func (s *refScheduler) Spawn(body func(*refThread) error) *refThread {
	id := len(s.threads)
	t := &refThread{
		id:     id,
		clk:    s.g.Clock(id),
		body:   body,
		resume: make(chan struct{}),
		paused: make(chan struct{}),
	}
	s.threads = append(s.threads, t)
	return t
}

// Run drives every registered thread to completion and returns the
// lowest-id thread's error, if any. Each body runs on its own goroutine but
// only between a resume handoff and its next Yield (or return), so the
// channel synchronization serializes all bodies: no locks are needed on the
// simulated shared state they touch.
func (s *refScheduler) Run() error {
	if s.running {
		return fmt.Errorf("sim: refScheduler.Run reentered")
	}
	if len(s.threads) != s.g.N() {
		return fmt.Errorf("sim: %d threads spawned for a group of %d", len(s.threads), s.g.N())
	}
	s.running = true
	defer func() { s.running = false }()
	for _, t := range s.threads {
		go func(t *refThread) {
			<-t.resume
			defer func() {
				if r := recover(); r != nil {
					t.err = fmt.Errorf("sim: thread %d panicked: %v", t.id, r)
				}
				t.done = true
				t.paused <- struct{}{}
			}()
			t.err = t.body(t)
		}(t)
	}
	for {
		pick := s.next()
		if pick == nil {
			break
		}
		pick.resume <- struct{}{}
		<-pick.paused
	}
	for _, t := range s.threads {
		if t.err != nil {
			return t.err
		}
	}
	return nil
}

// next selects the runnable thread with the lowest (clock, id); the strict
// < over an id-ordered scan makes the tie-break rule explicit.
func (s *refScheduler) next() *refThread {
	var pick *refThread
	for _, t := range s.threads {
		if t.done {
			continue
		}
		if pick == nil || t.clk.Now() < pick.clk.Now() {
			pick = t
		}
	}
	return pick
}

// schedThread is what a generated body uses of either scheduler's thread.
type schedThread interface {
	ID() int
	Clock() *Clock
	Yield()
}

// runBodies runs one body per clock of g on a scheduler under test.
type runBodies func(g *ThreadGroup, bodies []func(schedThread) error) error

func runOnScheduler(g *ThreadGroup, bodies []func(schedThread) error) error {
	s := NewScheduler(g)
	for _, b := range bodies {
		s.Spawn(func(th *Thread) error { return b(th) })
	}
	return s.Run()
}

func runOnReference(g *ThreadGroup, bodies []func(schedThread) error) error {
	s := newRefScheduler(g)
	for _, b := range bodies {
		s.Spawn(func(th *refThread) error { return b(th) })
	}
	return s.Run()
}

// threadSpec is one generated thread: it yields before each step, the way
// the executor yields before every memory operation, records the step and
// advances its clock by the step's duration (0 makes exact ties). Before
// step failAt it returns an error, before step panicAt it panics, and
// before step nestAt it runs a nested schedule starting at its own clock
// and advances to that schedule's join, as a scattered offload inside an
// mtrun thread does. -1 disables each.
type threadSpec struct {
	steps   []Duration
	failAt  int
	panicAt int
	nestAt  int
	nested  []threadSpec
}

// genSchedule draws 1–8 threads of 0–12 steps. At most one thread of a
// schedule returns an error and at most one panics; nesting goes one level
// down.
func genSchedule(r *RNG, depth int) []threadSpec {
	specs := make([]threadSpec, 1+r.Intn(8))
	for i := range specs {
		sp := threadSpec{steps: make([]Duration, r.Intn(13)), failAt: -1, panicAt: -1, nestAt: -1}
		for j := range sp.steps {
			sp.steps[j] = Duration(r.Intn(6)) // 0 one time in six
		}
		if depth == 0 && len(sp.steps) > 0 && r.Intn(6) == 0 {
			sp.nestAt = r.Intn(len(sp.steps))
			sp.nested = genSchedule(r, depth+1)
		}
		specs[i] = sp
	}
	if r.Intn(3) == 0 {
		sp := &specs[r.Intn(len(specs))]
		sp.failAt = r.Intn(len(sp.steps) + 1)
	}
	if r.Intn(3) == 0 {
		sp := &specs[r.Intn(len(specs))]
		sp.panicAt = r.Intn(len(sp.steps) + 1)
	}
	return specs
}

// play runs a schedule from instant start and returns the instant its
// slowest thread stopped at and the error its scheduler reported. Every
// step appends "path/tid@time " to out, and every schedule its final clocks.
func play(run runBodies, specs []threadSpec, start Time, path string, out *strings.Builder) (Time, error) {
	g := NewThreadGroup(len(specs), start)
	bodies := make([]func(schedThread) error, len(specs))
	for i := range specs {
		sp := specs[i]
		bodies[i] = func(th schedThread) error {
			for j := 0; j <= len(sp.steps); j++ {
				switch j {
				case sp.failAt:
					return fmt.Errorf("%s/%d failed at step %d", path, th.ID(), j)
				case sp.panicAt:
					panic(fmt.Sprintf("%s/%d panicked at step %d", path, th.ID(), j))
				case sp.nestAt:
					join, err := play(run, sp.nested, th.Clock().Now(), fmt.Sprintf("%s/%d", path, th.ID()), out)
					th.Clock().AdvanceTo(join)
					if err != nil {
						return err
					}
				}
				if j == len(sp.steps) {
					break
				}
				th.Yield()
				fmt.Fprintf(out, "%s/%d@%d ", path, th.ID(), th.Clock().Now())
				th.Clock().Advance(sp.steps[j])
			}
			return nil
		}
	}
	err := run(g, bodies)
	fmt.Fprintf(out, "%s=[", path)
	for i := 0; i < g.N(); i++ {
		fmt.Fprintf(out, "%d ", g.Clock(i).Now())
	}
	fmt.Fprintf(out, "] ")
	return g.Join(), err
}

// TestSchedulerMatchesChannelReference: over 1000 seeded random schedules
// the coroutine scheduler and the channel scheduler it replaced produce the
// same (tid, time) step trace, the same final clocks and the same error.
func TestSchedulerMatchesChannelReference(t *testing.T) {
	for seed := uint64(1); seed <= 1000; seed++ {
		specs := genSchedule(NewRNG(seed), 0)
		var got, want strings.Builder
		_, gotErr := play(runOnScheduler, specs, 0, "", &got)
		_, wantErr := play(runOnReference, specs, 0, "", &want)
		if got.String() != want.String() {
			t.Fatalf("seed %d: trace\n %s\nreference\n %s", seed, got.String(), want.String())
		}
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("seed %d: error %v, reference %v", seed, gotErr, wantErr)
		}
	}
}
