package transport

import (
	"bytes"
	"errors"
	"testing"

	"mira/internal/farmem"
	"mira/internal/netmodel"
	"mira/internal/sim"
)

// testPolicy is a small, fully-specified policy so tests exercise every
// resilience mechanism with predictable budgets.
func testPolicy() Policy {
	return Policy{
		MaxAttempts:      4,
		BaseBackoff:      1 * sim.Microsecond,
		MaxBackoff:       8 * sim.Microsecond,
		DeadlineBase:     10 * sim.Microsecond,
		DeadlineMult:     2,
		BreakerThreshold: 2,
		BreakerCooldown:  100 * sim.Microsecond,
		JitterSeed:       7,
	}
}

// tErr is a scripted transient failure; nack selects explicit-reply vs
// silent detection.
type tErr struct{ nack bool }

func (tErr) Error() string   { return "scripted transient failure" }
func (tErr) Transient() bool { return true }
func (e tErr) Nack() bool    { return e.nack }

// flakyBackend is a scripted in-memory backend: it fails the next
// `failures` attempts with failWith, mis-checksums the next `badSums`
// read-shaped replies, and adds `extra` injected delay to every success.
type flakyBackend struct {
	store    map[uint64][]byte
	failures int
	failWith error
	badSums  int
	extra    sim.Duration
	writes   int
}

func newFlaky() *flakyBackend {
	return &flakyBackend{store: map[uint64][]byte{}, failWith: tErr{nack: true}}
}

func (f *flakyBackend) step() error {
	if f.failures > 0 {
		f.failures--
		return f.failWith
	}
	return nil
}

func (f *flakyBackend) Read(_ sim.Time, addr uint64, buf []byte) (uint32, sim.Duration, error) {
	if err := f.step(); err != nil {
		return 0, 0, err
	}
	copy(buf, f.store[addr])
	sum := farmem.Checksum(buf)
	if f.badSums > 0 {
		f.badSums--
		sum ^= 0xffffffff
	}
	return sum, f.extra, nil
}

func (f *flakyBackend) Write(_ sim.Time, addr uint64, buf []byte) (sim.Duration, error) {
	if err := f.step(); err != nil {
		return 0, err
	}
	cp := make([]byte, len(buf))
	copy(cp, buf)
	f.store[addr] = cp
	f.writes++
	return f.extra, nil
}

func (f *flakyBackend) Gather(_ sim.Time, addrs []uint64, sizes []int) ([]byte, uint32, sim.Duration, error) {
	if err := f.step(); err != nil {
		return nil, 0, 0, err
	}
	var out []byte
	for i, a := range addrs {
		p := f.store[a]
		if len(p) < sizes[i] {
			p = make([]byte, sizes[i])
		}
		out = append(out, p[:sizes[i]]...)
	}
	sum := farmem.Checksum(out)
	if f.badSums > 0 {
		f.badSums--
		sum ^= 0xffffffff
	}
	return out, sum, f.extra, nil
}

func (f *flakyBackend) Scatter(_ sim.Time, addrs []uint64, pieces [][]byte) (sim.Duration, error) {
	if err := f.step(); err != nil {
		return 0, err
	}
	for i, a := range addrs {
		cp := make([]byte, len(pieces[i]))
		copy(cp, pieces[i])
		f.store[a] = cp
		f.writes++
	}
	return f.extra, nil
}

func (f *flakyBackend) Call(_ sim.Time, _ string, args []byte) ([]byte, sim.Duration, sim.Duration, error) {
	if err := f.step(); err != nil {
		return nil, 0, 0, err
	}
	return args, 0, f.extra, nil
}

func newFlakyT(pol Policy) (*T, *flakyBackend) {
	tr := NewWithPolicy(nil, netmodel.DefaultConfig(), pol)
	f := newFlaky()
	tr.SetBackend(f)
	return tr, f
}

// TestPermanentErrorPaths pins the error-path contract for the far node's
// own refusals: the typed sentinel survives the transport, no time passes,
// nothing is retried, and — critically — no bandwidth is charged for an
// operation that never moved bytes.
func TestPermanentErrorPaths(t *testing.T) {
	node := farmem.NewNode(farmem.NodeConfig{Capacity: 1 << 20, CPUSlowdown: 2})
	tr := New(node, netmodel.DefaultConfig())
	base, err := node.Alloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	const now = sim.Time(5000)
	bad := base + (1 << 30)
	cases := []struct {
		name string
		op   func() (sim.Time, error)
		want error
	}{
		{"unmapped read", func() (sim.Time, error) {
			return tr.ReadOneSided(now, bad, make([]byte, 8))
		}, farmem.ErrUnmapped},
		{"unmapped write", func() (sim.Time, error) {
			return tr.WriteOneSided(now, bad, []byte{1, 2})
		}, farmem.ErrUnmapped},
		{"failed gather", func() (sim.Time, error) {
			_, end, err := tr.GatherTwoSided(now, []uint64{base, bad}, []int{8, 8})
			return end, err
		}, farmem.ErrUnmapped},
		{"failed scatter", func() (sim.Time, error) {
			return tr.ScatterTwoSided(now, []uint64{bad}, [][]byte{{1}})
		}, farmem.ErrUnmapped},
		{"unknown procedure", func() (sim.Time, error) {
			_, end, err := tr.Call(now, "no-such-proc", []byte{1})
			return end, err
		}, farmem.ErrUnknownProc},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			transfers, bytesMoved := tr.BW.Transfers(), tr.BW.BytesMoved()
			retries := tr.Stats().Retries
			end, err := tc.op()
			if !errors.Is(err, tc.want) {
				t.Fatalf("error = %v, want errors.Is(%v)", err, tc.want)
			}
			if end != now {
				t.Errorf("refused op advanced time: %v (started %v)", end, now)
			}
			if tr.BW.Transfers() != transfers || tr.BW.BytesMoved() != bytesMoved {
				t.Errorf("refused op charged bandwidth: %d transfers/%d bytes -> %d/%d",
					transfers, bytesMoved, tr.BW.Transfers(), tr.BW.BytesMoved())
			}
			if tr.Stats().Retries != retries {
				t.Errorf("permanent error was retried")
			}
		})
	}
}

func TestRetryThenSucceed(t *testing.T) {
	pol := testPolicy()
	pol.BreakerThreshold = 0 // isolate retry behavior from the breaker
	tr, f := newFlakyT(pol)
	f.store[64] = []byte{10, 20, 30, 40}
	f.failures = 2

	clean, _ := newFlakyT(pol)
	clean.Backend().(*flakyBackend).store[64] = f.store[64]
	cleanEnd, err := clean.ReadOneSided(0, 64, make([]byte, 4))
	if err != nil {
		t.Fatal(err)
	}

	buf := make([]byte, 4)
	end, err := tr.ReadOneSided(0, 64, buf)
	if err != nil {
		t.Fatalf("retries did not cure transient failures: %v", err)
	}
	if !bytes.Equal(buf, f.store[64]) {
		t.Fatalf("payload = %v", buf)
	}
	st := tr.Stats()
	if st.Retries != 2 || st.Failures != 2 {
		t.Fatalf("retries=%d failures=%d, want 2/2", st.Retries, st.Failures)
	}
	if end <= cleanEnd {
		t.Fatalf("failed attempts charged no virtual time: %v vs clean %v", end, cleanEnd)
	}
	if tr.BW.Transfers() != 1 {
		t.Fatalf("bandwidth charged %d times, want once (success only)", tr.BW.Transfers())
	}
	if st.BackoffTime <= 0 {
		t.Fatalf("no backoff time recorded")
	}
}

func TestChecksumMismatchRetried(t *testing.T) {
	pol := testPolicy()
	tr, f := newFlakyT(pol)
	f.store[128] = []byte{7, 7, 7, 7, 7, 7, 7, 7}
	f.badSums = 1
	buf := make([]byte, 8)
	if _, err := tr.ReadOneSided(0, 128, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, f.store[128]) {
		t.Fatalf("payload = %v", buf)
	}
	st := tr.Stats()
	if st.Corruptions != 1 || st.Retries != 1 {
		t.Fatalf("corruptions=%d retries=%d, want 1/1", st.Corruptions, st.Retries)
	}
}

func TestDelaySpikeTimesOutThenGivesUp(t *testing.T) {
	pol := testPolicy()
	pol.MaxAttempts = 2
	pol.BreakerThreshold = 0
	tr, f := newFlakyT(pol)
	f.store[0] = make([]byte, 16)
	f.extra = 5 * sim.Millisecond // far beyond any deadline the policy allows
	_, err := tr.ReadOneSided(0, 0, make([]byte, 16))
	if !errors.Is(err, ErrFarUnavailable) {
		t.Fatalf("error = %v, want ErrFarUnavailable", err)
	}
	st := tr.Stats()
	if st.Timeouts != 2 || st.GaveUp != 1 {
		t.Fatalf("timeouts=%d gaveUp=%d, want 2/1", st.Timeouts, st.GaveUp)
	}
	if tr.BW.Transfers() != 0 {
		t.Fatalf("timed-out attempts charged bandwidth %d times", tr.BW.Transfers())
	}
}

func TestBreakerDegradedWriteServedAndFlushed(t *testing.T) {
	pol := testPolicy()
	tr, f := newFlakyT(pol)
	f.failures = 1 << 20 // node stays down until healed below
	data := []byte{1, 2, 3, 4, 5, 6, 7, 8}

	end, err := tr.WriteOneSided(0, 256, data)
	if err != nil {
		t.Fatalf("degraded write surfaced an error: %v", err)
	}
	st := tr.Stats()
	if st.BreakerTrips < 1 {
		t.Fatalf("breaker never tripped")
	}
	if st.QueuedWritebacks != 1 || tr.PendingWritebacks() != 1 {
		t.Fatalf("queued=%d pending=%d, want 1/1", st.QueuedWritebacks, tr.PendingWritebacks())
	}
	if !tr.BreakerOpen(end) {
		t.Fatalf("breaker closed immediately after tripping")
	}

	// Reads must see the queued write (the overlay is consistent).
	buf := make([]byte, 8)
	rend, err := tr.ReadOneSided(end, 256, buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatalf("overlay read = %v, want %v", buf, data)
	}
	if rend != end {
		t.Fatalf("overlay read took network time")
	}
	if tr.Stats().DegradedReads != 1 {
		t.Fatalf("degraded read not counted")
	}

	// Node heals; Flush must push the queued write out.
	f.failures = 0
	if _, err := tr.Flush(end); err != nil {
		t.Fatalf("flush after heal: %v", err)
	}
	if tr.PendingWritebacks() != 0 {
		t.Fatalf("flush left %d writebacks queued", tr.PendingWritebacks())
	}
	if tr.Stats().DrainedWritebacks < 1 {
		t.Fatalf("drain not counted")
	}
	if !bytes.Equal(f.store[256], data) {
		t.Fatalf("far node has %v, want %v", f.store[256], data)
	}
}

func TestScatterQueuesAndGatherServesOverlay(t *testing.T) {
	pol := testPolicy()
	tr, f := newFlakyT(pol)
	f.failures = 1 << 20
	addrs := []uint64{512, 1024}
	pieces := [][]byte{{1, 1, 1}, {2, 2}}
	if _, err := tr.ScatterTwoSided(0, addrs, pieces); err != nil {
		t.Fatalf("degraded scatter surfaced an error: %v", err)
	}
	if tr.PendingWritebacks() != 2 {
		t.Fatalf("pending = %d, want 2", tr.PendingWritebacks())
	}
	data, _, err := tr.GatherTwoSided(0, addrs, []int{3, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, []byte{1, 1, 1, 2, 2}) {
		t.Fatalf("gather from overlay = %v", data)
	}
}

func TestResilientTimingDeterministic(t *testing.T) {
	run := func() (sim.Time, Stats) {
		tr, f := newFlakyT(testPolicy())
		f.store[64] = make([]byte, 256)
		f.failures = 3
		end, err := tr.ReadOneSided(0, 64, make([]byte, 256))
		if err != nil {
			t.Fatal(err)
		}
		end2, err := tr.WriteOneSided(end, 64, make([]byte, 256))
		if err != nil {
			t.Fatal(err)
		}
		return end2, tr.Stats()
	}
	endA, stA := run()
	endB, stB := run()
	if endA != endB {
		t.Fatalf("same script, different completion: %v vs %v", endA, endB)
	}
	if stA != stB {
		t.Fatalf("same script, different stats: %+v vs %+v", stA, stB)
	}
}

func TestZeroPolicyDisablesResilience(t *testing.T) {
	tr, f := newFlakyT(Policy{})
	f.store[0] = []byte{9}
	f.failures = 1
	if _, err := tr.ReadOneSided(0, 0, make([]byte, 1)); err == nil {
		t.Fatalf("zero policy retried a failure")
	}
	st := tr.Stats()
	if st.Retries != 0 || st.BreakerTrips != 0 {
		t.Fatalf("zero policy produced retries=%d trips=%d", st.Retries, st.BreakerTrips)
	}
}
