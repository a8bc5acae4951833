package sim

import (
	"fmt"
	"iter"
)

// Scheduler interleaves simulated threads deterministically on virtual
// time: it always runs the not-yet-finished thread whose clock shows the
// lowest instant, breaking ties by thread id (lowest wins). Threads offer
// control at every memory-operation boundary via Thread.Yield, so
// shared-resource state (cache sections, the link's busy horizon, the swap
// lock) is mutated in virtual-time event order — contention is emergent
// rather than modeled in closed form.
//
// Exactly one thread body runs at any real instant. Each body is a
// coroutine (iter.Pull) that Run resumes and Yield suspends, a direct
// switch between the two with no channel and no trip through the Go
// scheduler's run queue, and a thread runs until overtaken: a Yield whose
// caller is still the lowest (time, id) returns without switching. Both
// Run and Yield decide with the one next(), over the same clocks at the
// same moment, so the interleaving is the same function of the clocks
// whichever of them evaluates it; it carries no Go-scheduler or wall-clock
// nondeterminism and the same bodies over the same clocks replay
// byte-identically.
type Scheduler struct {
	g       *ThreadGroup
	threads []*Thread
	// cur is the thread whose body is executing, nil outside Run.
	cur *Thread
	// resumes counts the coroutine switches Run made into a thread.
	resumes int
}

// Thread is one simulated thread registered with a Scheduler. Its body
// receives the Thread and must call Yield at every point where another
// thread could observe or contend with its next shared-state operation.
type Thread struct {
	id   int
	clk  *Clock
	body func(*Thread) error
	s    *Scheduler
	// The two ends of the body's coroutine. resume switches from Run's loop
	// into the body and returns when it suspends (true) or is over (false);
	// suspend switches back and returns when Run resumes the thread (false
	// if Run gave up on it instead).
	resume  func() (struct{}, bool)
	suspend func(struct{}) bool
	done    bool
	err     error
}

// ID reports the thread's scheduler-assigned id (registration order).
func (t *Thread) ID() int { return t.id }

// Clock returns the thread's private virtual clock.
func (t *Thread) Clock() *Clock { return t.clk }

// Yield lets every thread that is now ahead of the caller in (time, id)
// order run first: it returns once the caller is again the runnable thread
// with the lowest (time, id) — at once, without a switch, when it still
// is. Only the running thread may yield; anything else panics.
func (t *Thread) Yield() {
	s := t.s
	if s.cur != t {
		panic(fmt.Sprintf("sim: Yield on thread %d, which is not the running thread", t.id))
	}
	if s.next() == t {
		return
	}
	if !t.suspend(struct{}{}) {
		panic(fmt.Sprintf("sim: thread %d was suspended when its scheduler stopped", t.id))
	}
}

// NewScheduler creates a scheduler over the group's clocks: thread i of
// the schedule owns g.Clock(i). Register exactly g.N() bodies with Spawn,
// then call Run.
func NewScheduler(g *ThreadGroup) *Scheduler {
	return &Scheduler{g: g}
}

// Spawn registers the next thread body; ids are assigned in call order.
func (s *Scheduler) Spawn(body func(*Thread) error) *Thread {
	id := len(s.threads)
	t := &Thread{id: id, clk: s.g.Clock(id), body: body, s: s}
	s.threads = append(s.threads, t)
	return t
}

// Run drives every registered thread to completion and returns the
// lowest-id thread's error, if any. A body executes only between a resume
// from this loop and its next suspending Yield (or its return), and the
// loop waits inside that resume, so all bodies are serialized: no locks are
// needed on the simulated shared state they touch.
func (s *Scheduler) Run() error {
	if s.cur != nil { // only a body of this scheduler can get here
		return fmt.Errorf("sim: Scheduler.Run reentered")
	}
	if len(s.threads) != s.g.N() {
		return fmt.Errorf("sim: %d threads spawned for a group of %d", len(s.threads), s.g.N())
	}
	defer func() { s.cur = nil }()
	for _, t := range s.threads {
		var stop func()
		t.resume, stop = iter.Pull(t.run)
		defer stop()
	}
	for {
		pick := s.next()
		if pick == nil {
			break
		}
		s.cur = pick
		s.resumes++
		if _, suspended := pick.resume(); !suspended {
			pick.done = true
		}
	}
	for _, t := range s.threads {
		if t.err != nil {
			return t.err
		}
	}
	return nil
}

// run is the thread's coroutine: the body, with a panic turned into the
// thread's error.
func (t *Thread) run(suspend func(struct{}) bool) {
	t.suspend = suspend
	defer func() {
		if r := recover(); r != nil {
			t.err = fmt.Errorf("sim: thread %d panicked: %v", t.id, r)
		}
	}()
	t.err = t.body(t)
}

// next selects the runnable thread with the lowest (clock, id); the strict
// < over an id-ordered scan makes the tie-break rule explicit.
func (s *Scheduler) next() *Thread {
	var pick *Thread
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
