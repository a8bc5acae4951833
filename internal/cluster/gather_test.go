package cluster

import (
	"bytes"
	"errors"
	"testing"

	"mira/internal/farmem"
	"mira/internal/faults"
	"mira/internal/sim"
	"mira/internal/transport"
)

// A gather spanning every node while one primary is down: that node's batch
// fails, its pieces are recovered one by one through readSegment with
// failover — calls on the very links whose replies the loop has been
// copying out of — and the pieces of the healthy nodes, gathered before and
// after, must come back intact in the pool's own reply. The node links
// scribble over their previous reply at every call (scribble_test.go).
func TestGatherFallsBackPerSegmentAndKeepsEarlierPieces(t *testing.T) {
	opts := testOptions(3, 2)
	pol := transport.DefaultPolicy()
	pol.MaxAttempts = 1 // fail fast: the pool's replicas are the retry
	pol.BreakerThreshold = 1
	pol.BreakerCooldown = 10 * sim.Millisecond
	opts.Policy = &pol
	const stripes = 12
	p, base, victim := buildFaulted(t, opts, stripes*4096, faults.Config{
		Seed: 3,
		Schedule: []faults.Event{
			{At: sim.Time(100 * sim.Microsecond), Kind: faults.Crash},
			{At: sim.Time(5 * sim.Millisecond), Kind: faults.Restart},
		},
	})
	image := fill(stripes*4096, 5)
	if _, err := p.WriteOneSided(0, base, image); err != nil {
		t.Fatal(err)
	}
	// One piece per stripe, one of them crossing into the next stripe.
	var addrs []uint64
	var sizes []int
	var want []byte
	primaries := map[int]bool{}
	for s := 0; s < stripes-1; s++ {
		off, n := s*4096+100, 256
		if s == 4 {
			off, n = s*4096+4000, 300
		}
		addrs = append(addrs, base+uint64(off))
		sizes = append(sizes, n)
		want = append(want, image[off:off+n]...)
		primaries[primaryOf(t, p, base+uint64(off))] = true
	}
	if !primaries[victim] || len(primaries) < 2 {
		t.Fatalf("the gather does not span the victim and a healthy node: primaries %v, victim %d", primaries, victim)
	}
	at := sim.Time(200 * sim.Microsecond) // the victim is down, its breaker still closed
	for _, gather := range []func(sim.Time, []uint64, []int) ([]byte, sim.Time, error){p.GatherOneSided, p.GatherTwoSided} {
		got, _, err := gather(at, addrs, sizes)
		if err != nil {
			t.Fatalf("gather during the crash: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("gather during the crash returned wrong bytes")
		}
		at += sim.Time(10 * sim.Microsecond) // second flavor: breaker open, chooseHome routes around
	}
	if p.Failovers() == 0 {
		t.Fatal("no piece failed over")
	}
	if p.Transport(victim).Stats().Failures == 0 {
		t.Fatal("the victim's batch never failed: the per-segment fallback did not run")
	}
}

// Release empties the pool: every node hands its regions back, every address
// answers ErrUnmapped on the timed and the untimed path alike, and a second
// Release finds nothing.
func TestReleaseLeavesThePoolUnmapped(t *testing.T) {
	p := mustPool(t, testOptions(3, 2))
	base, err := p.Alloc(16 << 10)
	if err != nil {
		t.Fatal(err)
	}
	sec, err := p.AllocSection(1, 8<<10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.WriteOneSided(0, base, fill(4096, 9)); err != nil {
		t.Fatal(err)
	}
	p.Release()
	p.Release()
	buf := make([]byte, 64)
	for _, addr := range []uint64{base, sec} {
		if _, err := p.ReadOneSided(0, addr, buf); !errors.Is(err, farmem.ErrUnmapped) {
			t.Fatalf("ReadOneSided after Release: %v, want ErrUnmapped", err)
		}
		if _, _, err := p.GatherOneSided(0, []uint64{addr}, []int{64}); !errors.Is(err, farmem.ErrUnmapped) {
			t.Fatalf("GatherOneSided after Release: %v, want ErrUnmapped", err)
		}
		if err := p.Read(addr, buf); !errors.Is(err, farmem.ErrUnmapped) {
			t.Fatalf("Read after Release: %v, want ErrUnmapped", err)
		}
		if err := p.Write(addr, buf); !errors.Is(err, farmem.ErrUnmapped) {
			t.Fatalf("Write after Release: %v, want ErrUnmapped", err)
		}
	}
	if got := p.AllocatedBytes(); got != 0 {
		t.Fatalf("AllocatedBytes after Release = %d", got)
	}
}
