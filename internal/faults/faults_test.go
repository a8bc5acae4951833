package faults

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"mira/internal/farmem"
	"mira/internal/netmodel"
	"mira/internal/sim"
	"mira/internal/transport"
)

// onNode wraps a far node's backend with fault injection; a memory-losing
// restart wipes the node.
func onNode(node *farmem.Node, cfg Config) *Injector {
	return Wrap(transport.NewNodeBackend(node), node.WipeMemory, cfg)
}

func newNode(t *testing.T) (*farmem.Node, uint64) {
	t.Helper()
	node := farmem.NewNode(farmem.NodeConfig{Capacity: 1 << 20, CPUSlowdown: 2})
	base, err := node.Alloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	return node, base
}

func TestErrorClassification(t *testing.T) {
	for _, err := range []error{ErrNodeDown, ErrPartition, ErrInjectedIO} {
		if !transport.IsTransient(err) {
			t.Errorf("%v not transient", err)
		}
		if !IsInjected(err) {
			t.Errorf("%v not recognized as injected", err)
		}
	}
	// Only the explicit NACK is detected after one RTT; crash and partition
	// are silence, so the transport waits out its deadline.
	nack := func(err error) bool {
		var ne transport.NackError
		return errors.As(err, &ne) && ne.Nack()
	}
	if !nack(ErrInjectedIO) {
		t.Error("ErrInjectedIO should be a NACK")
	}
	if nack(ErrNodeDown) || nack(ErrPartition) {
		t.Error("crash/partition must be silent, not NACKs")
	}
	if IsInjected(farmem.ErrUnmapped) {
		t.Error("node refusal misattributed to the injector")
	}
}

func TestCrashWindowRefusesThenRecovers(t *testing.T) {
	node, base := newNode(t)
	in := onNode(node, Config{Schedule: []Event{
		{At: 100, Kind: Crash},
		{At: 200, Kind: Restart},
	}})
	buf := make([]byte, 8)
	if _, _, err := in.Read(50, base, buf); err != nil {
		t.Fatalf("pre-crash read: %v", err)
	}
	if _, _, err := in.Read(150, base, buf); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("mid-crash read err = %v, want ErrNodeDown", err)
	}
	if !in.DownAt(150) || in.DownAt(250) {
		t.Fatalf("DownAt disagrees with the schedule")
	}
	if _, _, err := in.Read(250, base, buf); err != nil {
		t.Fatalf("post-restart read: %v", err)
	}
	st := in.Stats()
	if st.DownRefusals != 1 {
		t.Fatalf("refusals = %d, want 1", st.DownRefusals)
	}
}

func TestPartitionWindowDrops(t *testing.T) {
	node, base := newNode(t)
	in := onNode(node, Config{Schedule: []Event{
		{At: 100, Kind: PartitionStart},
		{At: 200, Kind: PartitionEnd},
	}})
	if _, err := in.Write(150, base, []byte{1}); !errors.Is(err, ErrPartition) {
		t.Fatalf("err = %v, want ErrPartition", err)
	}
	if _, err := in.Write(250, base, []byte{1}); err != nil {
		t.Fatalf("post-heal write: %v", err)
	}
	if in.Stats().Partitioned != 1 {
		t.Fatalf("partition drops = %d, want 1", in.Stats().Partitioned)
	}
}

func TestMemoryLosingRestartWipes(t *testing.T) {
	node, base := newNode(t)
	in := onNode(node, Config{Schedule: []Event{
		{At: 100, Kind: Crash, LoseMemory: true},
		{At: 200, Kind: Restart},
	}})
	data := []byte{1, 2, 3, 4}
	if _, err := in.Write(10, base, data); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, _, err := in.Read(250, base, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, make([]byte, 4)) {
		t.Fatalf("post-wipe read = %v, want zeroes", buf)
	}
	if in.Stats().Wipes != 1 {
		t.Fatalf("wipes = %d, want 1", in.Stats().Wipes)
	}
}

func TestNonLosingRestartKeepsMemory(t *testing.T) {
	node, base := newNode(t)
	in := onNode(node, Config{Schedule: []Event{
		{At: 100, Kind: Crash},
		{At: 200, Kind: Restart},
	}})
	data := []byte{5, 6, 7, 8}
	if _, err := in.Write(10, base, data); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, _, err := in.Read(250, base, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatalf("post-restart read = %v, want %v", buf, data)
	}
}

// TestDeterministicInjection is the determinism acceptance check at the
// injector level: same seed, same schedule, same operation sequence —
// identical injected-event log, stats, and per-op outcomes.
func TestDeterministicInjection(t *testing.T) {
	run := func() ([]string, Stats, []string) {
		node, base := newNode(t)
		in := onNode(node, Config{
			Seed:        42,
			ErrorRate:   0.2,
			DelayRate:   0.3,
			DelayMin:    sim.Microsecond,
			DelayMax:    20 * sim.Microsecond,
			CorruptRate: 0.2,
			Schedule: []Event{
				{At: 5000, Kind: Crash},
				{At: 7000, Kind: Restart},
			},
		})
		var outcomes []string
		buf := make([]byte, 32)
		for i := 0; i < 200; i++ {
			at := sim.Time(i * 50)
			var err error
			var extra sim.Duration
			if i%2 == 0 {
				_, err = in.Write(at, base+uint64(i%64), buf)
			} else {
				_, extra, err = in.Read(at, base+uint64(i%64), buf)
			}
			outcomes = append(outcomes, errString(err)+"/"+extra.String())
		}
		return in.Log(), in.Stats(), outcomes
	}
	logA, stA, outA := run()
	logB, stB, outB := run()
	if !reflect.DeepEqual(logA, logB) {
		t.Fatalf("injected-event logs differ:\nA: %v\nB: %v", logA, logB)
	}
	if stA != stB {
		t.Fatalf("stats differ: %+v vs %+v", stA, stB)
	}
	if !reflect.DeepEqual(outA, outB) {
		t.Fatalf("per-op outcomes differ")
	}
	if len(logA) == 0 {
		t.Fatal("nothing was injected; the test exercised nothing")
	}
	if stA.IOErrors == 0 || stA.Delays == 0 || stA.BitFlips == 0 || stA.DownRefusals == 0 {
		t.Fatalf("fault mix incomplete: %+v", stA)
	}
}

func errString(err error) string {
	if err == nil {
		return "ok"
	}
	return err.Error()
}

// TestCorruptionCaughtEndToEnd drives the full transport over the injector:
// every read is bit-flipped in flight, the end-to-end checksum catches every
// flip, and the retry budget eventually exhausts into ErrFarUnavailable.
func TestCorruptionCaughtEndToEnd(t *testing.T) {
	node, base := newNode(t)
	tr := transport.New(node, netmodel.DefaultConfig())
	tr.SetBackend(onNode(node, Config{Seed: 9, CorruptRate: 1}))
	if err := node.Write(base, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	_, err := tr.ReadOneSided(0, base, make([]byte, 4))
	if !errors.Is(err, transport.ErrFarUnavailable) {
		t.Fatalf("err = %v, want ErrFarUnavailable after exhausting retries", err)
	}
	if got := tr.Stats().Corruptions; got != int64(tr.Policy().MaxAttempts) {
		t.Fatalf("corruptions = %d, want one per attempt (%d)", got, tr.Policy().MaxAttempts)
	}
}

// TestOccasionalCorruptionCured is the happy path: a low corruption rate is
// invisible to callers because retries re-fetch clean data.
func TestOccasionalCorruptionCured(t *testing.T) {
	node, base := newNode(t)
	tr := transport.New(node, netmodel.DefaultConfig())
	tr.SetBackend(onNode(node, Config{Seed: 5, CorruptRate: 0.3}))
	want := []byte{9, 8, 7, 6, 5, 4, 3, 2}
	if err := node.Write(base, want); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	for i := 0; i < 50; i++ {
		if _, err := tr.ReadOneSided(sim.Time(i*1000), base, buf); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !bytes.Equal(buf, want) {
			t.Fatalf("read %d returned corrupted data: %v", i, buf)
		}
	}
	if tr.Stats().Corruptions == 0 {
		t.Fatal("no corruption was injected; lower the rate check")
	}
}

// TestGatherCorruptionOnTheOwnedReplyCured is the gather twin: the injector
// flips its bit in the reply buffer the far node owns and reuses, the
// checksum the node took before the flip exposes it, and the retry — which
// reassembles into that same buffer — delivers clean bytes; no flip survives
// into a later reply.
func TestGatherCorruptionOnTheOwnedReplyCured(t *testing.T) {
	node, base := newNode(t)
	tr := transport.New(node, netmodel.DefaultConfig())
	tr.SetBackend(onNode(node, Config{Seed: 5, CorruptRate: 0.3}))
	want := []byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 2, 3, 4, 5, 6, 7, 8}
	if err := node.Write(base, want); err != nil {
		t.Fatal(err)
	}
	addrs, sizes := []uint64{base + 8, base}, []int{8, 8}
	for i := 0; i < 60; i++ {
		gather := tr.GatherOneSided
		if i%2 == 1 {
			gather = tr.GatherTwoSided
		}
		got, _, err := gather(sim.Time(i*1000), addrs, sizes)
		if err != nil {
			t.Fatalf("gather %d: %v", i, err)
		}
		if !bytes.Equal(got[:8], want[8:]) || !bytes.Equal(got[8:], want[:8]) {
			t.Fatalf("gather %d returned corrupted data: %v", i, got)
		}
	}
	st := tr.Stats()
	if st.Corruptions == 0 || st.Retries < st.Corruptions {
		t.Fatalf("corruptions %d, retries %d: no flip was injected and retried", st.Corruptions, st.Retries)
	}
}

func TestNamedSchedules(t *testing.T) {
	names := Names()
	if len(names) == 0 {
		t.Fatal("no named schedules")
	}
	for _, n := range names {
		cfg, err := Named(n, 1)
		if err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		if n != "none" && !cfg.Enabled() {
			t.Errorf("%s builds a no-op config", n)
		}
	}
	if _, err := Named("no-such-schedule", 1); err == nil {
		t.Fatal("unknown schedule accepted")
	}
	// Windows scale with the measured horizon.
	h := 60 * sim.Millisecond
	cfg, err := NamedScaled("crash", 1, h)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Schedule[0].At != sim.Time(h/3) {
		t.Fatalf("crash at %v, want %v", cfg.Schedule[0].At, sim.Time(h/3))
	}
}

func TestZeroConfigInjectsNothing(t *testing.T) {
	node, base := newNode(t)
	in := onNode(node, Config{})
	if in.Stats().Ops != 0 {
		t.Fatal("fresh injector has ops")
	}
	buf := make([]byte, 8)
	for i := 0; i < 100; i++ {
		if _, _, err := in.Read(sim.Time(i), base, buf); err != nil {
			t.Fatal(err)
		}
	}
	st := in.Stats()
	if st.IOErrors+st.Delays+st.BitFlips+st.DownRefusals+st.Partitioned != 0 {
		t.Fatalf("zero config injected faults: %+v", st)
	}
	if len(in.Log()) != 0 {
		t.Fatalf("zero config logged: %v", in.Log())
	}
	if (Config{}).Enabled() {
		t.Fatal("zero config claims to be enabled")
	}
}
