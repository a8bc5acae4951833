// Package faults is a deterministic, seeded fault-injection framework for
// the far-memory data path. An Injector wraps the transport.Backend boundary
// between the resilient transport and the far node and perturbs traffic in
// virtual time: delay spikes, transient I/O errors, payload corruption (bit
// flips that the transport's end-to-end checksums catch), far-node crash
// windows (with or without memory loss on restart), and network partitions.
//
// Everything is a pure function of (seed, schedule, operation sequence):
// running the same workload against the same Config twice injects the exact
// same faults at the exact same virtual instants, which is what makes
// robustness regressions bisectable.
package faults

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"mira/internal/sim"
	"mira/internal/transport"
)

// injError is a transient fault-injector error. nack reports whether the
// failure was an explicit reply (detected after ~1 RTT) or silence (the
// transport waits out its deadline).
type injError struct {
	msg  string
	nack bool
}

func (e *injError) Error() string   { return e.msg }
func (e *injError) Transient() bool { return true }
func (e *injError) Nack() bool      { return e.nack }

// Sentinel errors the injector produces. All are transient — a retry may
// succeed once the fault window passes.
var (
	// ErrNodeDown reports an operation issued while the far node is
	// crashed. Silent: the client only learns via its deadline.
	ErrNodeDown error = &injError{msg: "faults: far node is down"}
	// ErrPartition reports an operation issued while the network is
	// partitioned. Silent, like a dropped packet.
	ErrPartition error = &injError{msg: "faults: network partitioned"}
	// ErrInjectedIO is a random transient I/O failure (explicit NACK from
	// the NIC or the far node's receive path).
	ErrInjectedIO error = &injError{msg: "faults: injected transient I/O error", nack: true}
)

// Interface conformance for the transport's error classification.
var (
	_ transport.TransientError = ErrNodeDown.(*injError)
	_ transport.NackError      = ErrInjectedIO.(*injError)
)

// EventKind labels a scheduled fault event.
type EventKind int

const (
	// Crash takes the far node down at Event.At.
	Crash EventKind = iota
	// Restart brings the far node back. If the matching Crash had
	// LoseMemory set, the node restarts with every allocated byte zeroed.
	Restart
	// PartitionStart cuts the network at Event.At.
	PartitionStart
	// PartitionEnd heals the partition.
	PartitionEnd
)

func (k EventKind) String() string {
	switch k {
	case Crash:
		return "crash"
	case Restart:
		return "restart"
	case PartitionStart:
		return "partition-start"
	case PartitionEnd:
		return "partition-end"
	default:
		return fmt.Sprintf("event(%d)", int(k))
	}
}

// Event is one scheduled fault transition at a virtual instant.
type Event struct {
	At   sim.Time
	Kind EventKind
	// LoseMemory, on a Crash, wipes the node's memory when it restarts —
	// modelling volatile far memory with no replication.
	LoseMemory bool
}

// Config describes a fault scenario: a deterministic schedule of
// crash/partition windows plus seeded probabilistic per-operation faults.
// The zero value injects nothing.
type Config struct {
	// Seed drives every probabilistic draw. Same seed, same workload,
	// same faults.
	Seed uint64
	// Schedule is the list of crash/partition transitions, in any order
	// (the injector sorts by At).
	Schedule []Event
	// ErrorRate is the per-attempt probability of a transient I/O NACK.
	ErrorRate float64
	// DelayRate is the per-attempt probability of a delay spike of
	// uniform size in [DelayMin, DelayMax].
	DelayRate float64
	DelayMin  sim.Duration
	DelayMax  sim.Duration
	// CorruptRate is the per-read probability of flipping one payload bit
	// in flight. The far node's checksum covers the true data, so the
	// transport detects the flip and retries.
	CorruptRate float64
}

// Enabled reports whether the config injects any fault at all.
func (c Config) Enabled() bool {
	return len(c.Schedule) > 0 || c.ErrorRate > 0 || c.DelayRate > 0 || c.CorruptRate > 0
}

// Stats counts what the injector actually did.
type Stats struct {
	Ops          int64
	DownRefusals int64 // attempts refused by a crash window
	Partitioned  int64 // attempts dropped by a partition window
	IOErrors     int64 // injected transient NACKs
	Delays       int64 // injected delay spikes
	BitFlips     int64 // injected payload corruptions
	Wipes        int64 // memory-losing restarts applied
}

// Injector implements transport.Backend over an inner backend, injecting the
// configured faults. Safe for concurrent use.
type Injector struct {
	inner transport.Backend
	wipe  func() // zeroes far memory on a memory-losing restart (may be nil)

	mu       sync.Mutex
	cfg      Config
	rng      *sim.RNG
	schedule []Event    // sorted by At
	wipeAt   []sim.Time // restart instants that lose memory, sorted
	wiped    int        // prefix of wipeAt already applied
	stats    Stats
	log      []string
}

// Wrap builds an injector over an arbitrary backend. wipe (which may be nil)
// is invoked when a memory-losing crash restarts.
func Wrap(inner transport.Backend, wipe func(), cfg Config) *Injector {
	in := &Injector{
		inner: inner,
		wipe:  wipe,
		cfg:   cfg,
		rng:   sim.NewRNG(cfg.Seed),
	}
	in.schedule = append(in.schedule, cfg.Schedule...)
	sort.SliceStable(in.schedule, func(i, j int) bool { return in.schedule[i].At < in.schedule[j].At })
	// Pre-compute the restart instants that lose memory: a LoseMemory
	// crash wipes at its matching (next) Restart.
	losing := false
	for _, e := range in.schedule {
		switch e.Kind {
		case Crash:
			losing = e.LoseMemory
		case Restart:
			if losing {
				in.wipeAt = append(in.wipeAt, e.At)
				losing = false
			}
		}
	}
	return in
}

// Stats snapshots the injector's counters.
func (in *Injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}

// Log returns the injected-event log: one line per injected fault, in
// injection order. Two runs with the same seed and workload produce
// identical logs — the determinism acceptance check.
func (in *Injector) Log() []string {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]string, len(in.log))
	copy(out, in.log)
	return out
}

func (in *Injector) record(now sim.Time, format string, args ...any) {
	in.log = append(in.log, fmt.Sprintf("%d %s", int64(now), fmt.Sprintf(format, args...)))
}

// Sync forces every pending memory-losing wipe whose restart instant is at
// or before now to apply immediately. Wipes normally apply lazily on the
// first operation past the restart; recovery passes (cluster re-sync) call
// Sync first so "has this node lost its memory by now?" has a deterministic
// answer even when no operation has touched the node yet.
func (in *Injector) Sync(now sim.Time) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.applyWipesLocked(now)
}

// Down reports whether the node is inside a crash or partition window at
// instant now — i.e. whether an operation issued now would be refused.
// Recovery passes consult it to avoid "restoring" a node that is still
// dark (a pre-restart restore would be erased by the pending wipe).
func (in *Injector) Down(now sim.Time) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	crashed, partitioned := false, false
	for _, e := range in.schedule {
		if e.At > now {
			break
		}
		switch e.Kind {
		case Crash:
			crashed = true
		case Restart:
			crashed = false
		case PartitionStart:
			partitioned = true
		case PartitionEnd:
			partitioned = false
		}
	}
	return crashed || partitioned
}

// applyWipesLocked fires every memory-losing restart at or before now.
// Called with in.mu held.
func (in *Injector) applyWipesLocked(now sim.Time) {
	for in.wiped < len(in.wipeAt) && in.wipeAt[in.wiped] <= now {
		if in.wipe != nil {
			in.wipe()
		}
		in.stats.Wipes++
		in.record(in.wipeAt[in.wiped], "wipe: far memory lost across restart")
		in.wiped++
	}
}

// gate applies the schedule at instant now: lazily wipes memory for
// memory-losing restarts that have passed, then refuses the attempt if it
// falls in a crash or partition window. Called with in.mu held.
func (in *Injector) gate(now sim.Time, op string) error {
	in.applyWipesLocked(now)
	crashed, partitioned := false, false
	for _, e := range in.schedule {
		if e.At > now {
			break
		}
		switch e.Kind {
		case Crash:
			crashed = true
		case Restart:
			crashed = false
		case PartitionStart:
			partitioned = true
		case PartitionEnd:
			partitioned = false
		}
	}
	if crashed {
		in.stats.DownRefusals++
		in.record(now, "down: %s refused (node crashed)", op)
		return ErrNodeDown
	}
	if partitioned {
		in.stats.Partitioned++
		in.record(now, "drop: %s lost (partition)", op)
		return ErrPartition
	}
	return nil
}

// perturb makes the probabilistic draws for one attempt, in a fixed order
// (error, then delay, then corruption) so the random stream is identical
// across runs. It returns the injected extra delay and whether to flip a
// payload bit; a non-nil error refuses the attempt.
func (in *Injector) perturb(now sim.Time, op string, read bool) (extra sim.Duration, flip bool, err error) {
	if in.cfg.ErrorRate > 0 && in.rng.Float64() < in.cfg.ErrorRate {
		in.stats.IOErrors++
		in.record(now, "io-error: %s", op)
		return 0, false, ErrInjectedIO
	}
	if in.cfg.DelayRate > 0 && in.rng.Float64() < in.cfg.DelayRate {
		span := in.cfg.DelayMax - in.cfg.DelayMin
		d := in.cfg.DelayMin
		if span > 0 {
			d += sim.Duration(in.rng.Uint64() % uint64(span+1))
		}
		if d > 0 {
			in.stats.Delays++
			in.record(now, "delay: %s +%s", op, d)
			extra = d
		}
	}
	if read && in.cfg.CorruptRate > 0 && in.rng.Float64() < in.cfg.CorruptRate {
		in.stats.BitFlips++
		flip = true
	}
	return extra, flip, nil
}

// admit runs the gate and the probabilistic draws for one attempt.
func (in *Injector) admit(now sim.Time, op string, read bool) (sim.Duration, bool, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.stats.Ops++
	if err := in.gate(now, op); err != nil {
		return 0, false, err
	}
	return in.perturb(now, op, read)
}

// flipBit corrupts one deterministic-random bit of buf in place.
func (in *Injector) flipBit(now sim.Time, op string, buf []byte) {
	if len(buf) == 0 {
		return
	}
	in.mu.Lock()
	bit := int(in.rng.Uint64() % uint64(len(buf)*8))
	in.record(now, "corrupt: %s bit %d of %d bytes", op, bit, len(buf))
	in.mu.Unlock()
	buf[bit/8] ^= 1 << (bit % 8)
}

// Read implements transport.Backend. The checksum is computed by the inner
// backend over the true data; a bit flip afterwards models in-flight
// corruption that the transport's end-to-end check catches.
func (in *Injector) Read(now sim.Time, addr uint64, buf []byte) (uint32, sim.Duration, error) {
	extra, flip, err := in.admit(now, "read", true)
	if err != nil {
		return 0, 0, err
	}
	sum, innerExtra, err := in.inner.Read(now, addr, buf)
	if err != nil {
		return 0, 0, err
	}
	if flip {
		in.flipBit(now, "read", buf)
	}
	return sum, extra + innerExtra, nil
}

// Write implements transport.Backend.
func (in *Injector) Write(now sim.Time, addr uint64, buf []byte) (sim.Duration, error) {
	extra, _, err := in.admit(now, "write", false)
	if err != nil {
		return 0, err
	}
	innerExtra, err := in.inner.Write(now, addr, buf)
	if err != nil {
		return 0, err
	}
	return extra + innerExtra, nil
}

// Gather implements transport.Backend.
func (in *Injector) Gather(now sim.Time, addrs []uint64, sizes []int) ([]byte, uint32, sim.Duration, error) {
	extra, flip, err := in.admit(now, "gather", true)
	if err != nil {
		return nil, 0, 0, err
	}
	data, sum, innerExtra, err := in.inner.Gather(now, addrs, sizes)
	if err != nil {
		return nil, 0, 0, err
	}
	if flip {
		in.flipBit(now, "gather", data)
	}
	return data, sum, extra + innerExtra, nil
}

// Scatter implements transport.Backend.
func (in *Injector) Scatter(now sim.Time, addrs []uint64, pieces [][]byte) (sim.Duration, error) {
	extra, _, err := in.admit(now, "scatter", false)
	if err != nil {
		return 0, err
	}
	innerExtra, err := in.inner.Scatter(now, addrs, pieces)
	if err != nil {
		return 0, err
	}
	return extra + innerExtra, nil
}

// Call implements transport.Backend. RPC replies are length-framed rather
// than checksummed in this model, so corruption is not injected here.
func (in *Injector) Call(now sim.Time, name string, args []byte) ([]byte, sim.Duration, sim.Duration, error) {
	extra, _, err := in.admit(now, "call "+name, false)
	if err != nil {
		return nil, 0, 0, err
	}
	res, farCPU, innerExtra, err := in.inner.Call(now, name, args)
	if err != nil {
		return nil, 0, 0, err
	}
	return res, farCPU, extra + innerExtra, nil
}

// DownAt reports whether the schedule has the far node crashed or
// partitioned at the given instant (for tests and schedule debugging).
func (in *Injector) DownAt(now sim.Time) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	crashed, partitioned := false, false
	for _, e := range in.schedule {
		if e.At > now {
			break
		}
		switch e.Kind {
		case Crash:
			crashed = true
		case Restart:
			crashed = false
		case PartitionStart:
			partitioned = true
		case PartitionEnd:
			partitioned = false
		}
	}
	return crashed || partitioned
}

// IsInjected reports whether err originated in the fault injector.
func IsInjected(err error) bool {
	var ie *injError
	return errors.As(err, &ie)
}
