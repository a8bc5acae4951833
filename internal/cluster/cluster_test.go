package cluster

import (
	"bytes"
	"testing"

	"mira/internal/farmem"
	"mira/internal/faults"
	"mira/internal/netmodel"
	"mira/internal/sim"
	"mira/internal/transport"
)

func testOptions(nodes, replicas int) Options {
	return Options{
		Nodes:       nodes,
		Replicas:    replicas,
		Seed:        1,
		StripeBytes: 4096,
		NodeCfg:     farmem.NodeConfig{Capacity: 1 << 24, CPUSlowdown: 3},
		Net:         netmodel.DefaultConfig(),
	}
}

func mustPool(t *testing.T, opts Options) *Pool {
	t.Helper()
	p, err := New(opts)
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	return p
}

func fill(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i*7)
	}
	return b
}

func TestPlacementDeterminism(t *testing.T) {
	build := func() []byte {
		p := mustPool(t, testOptions(4, 2))
		if _, err := p.Alloc(64 << 10); err != nil {
			t.Fatal(err)
		}
		for sec := uint16(1); sec <= 5; sec++ {
			if _, err := p.AllocSection(sec, 8<<10); err != nil {
				t.Fatal(err)
			}
		}
		j, err := p.TableJSON()
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	a, b := build(), build()
	if !bytes.Equal(a, b) {
		t.Fatalf("placement table not byte-stable across identical builds:\n%s\nvs\n%s", a, b)
	}
}

func TestStripingSpreadsAcrossNodes(t *testing.T) {
	p := mustPool(t, testOptions(4, 1))
	if _, err := p.Alloc(1 << 20); err != nil { // 256 stripes of 4 KiB
		t.Fatal(err)
	}
	used := map[int]int{}
	for _, e := range p.Table() {
		used[e.Homes[0].Node]++
	}
	for node := 0; node < 4; node++ {
		if used[node] == 0 {
			t.Fatalf("node %d received no stripes: distribution %v", node, used)
		}
	}
}

func TestCapacityWeightedPlacement(t *testing.T) {
	opts := testOptions(2, 1)
	opts.Capacities = []uint64{1 << 26, 1 << 22} // node 0 is 16x larger
	p := mustPool(t, opts)
	if _, err := p.Alloc(2 << 20); err != nil {
		t.Fatal(err)
	}
	used := map[int]int{}
	for _, e := range p.Table() {
		used[e.Homes[0].Node]++
	}
	if used[0] <= used[1] {
		t.Fatalf("16x-capacity node got %d stripes vs %d — weighting not applied", used[0], used[1])
	}
}

func TestPlacementNeverOvercommitsNode(t *testing.T) {
	opts := testOptions(3, 1)
	opts.Capacities = []uint64{1 << 22, 1 << 22, 64 << 10} // one tiny node
	p := mustPool(t, opts)
	// Allocate almost the full cluster: the tiny node must saturate and
	// the rendezvous ranking must fall through to the big nodes.
	for i := 0; i < 100; i++ {
		if _, err := p.Alloc(64 << 10); err != nil {
			break
		}
	}
	for i := 0; i < p.NodeCount(); i++ {
		if got, cap := p.FarNode(i).AllocatedBytes(), p.FarNode(i).Capacity(); got > cap {
			t.Fatalf("node %d over-committed: %d bytes in %d capacity", i, got, cap)
		}
	}
}

func TestLinkRoundTripAcrossStripes(t *testing.T) {
	p := mustPool(t, testOptions(4, 2))
	base, err := p.Alloc(64 << 10)
	if err != nil {
		t.Fatal(err)
	}
	// A write spanning many stripes, offset so it straddles boundaries.
	data := fill(40<<10, 9)
	addr := base + 1000
	if _, err := p.WriteOneSided(0, addr, data); err != nil {
		t.Fatalf("write: %v", err)
	}
	got := make([]byte, len(data))
	if _, err := p.ReadOneSided(0, addr, got); err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("round-trip across stripes corrupted data")
	}
}

func TestGatherScatterSplitAcrossNodes(t *testing.T) {
	p := mustPool(t, testOptions(4, 1))
	base, err := p.Alloc(64 << 10)
	if err != nil {
		t.Fatal(err)
	}
	// Scatter three pieces, one crossing a stripe boundary.
	addrs := []uint64{base + 100, base + 4096 - 50, base + 3*4096}
	pieces := [][]byte{fill(64, 1), fill(128, 2), fill(256, 3)}
	if _, err := p.ScatterTwoSided(0, addrs, pieces); err != nil {
		t.Fatalf("scatter: %v", err)
	}
	sizes := []int{64, 128, 256}
	data, _, err := p.GatherTwoSided(0, addrs, sizes)
	if err != nil {
		t.Fatalf("gather: %v", err)
	}
	want := append(append(append([]byte{}, pieces[0]...), pieces[1]...), pieces[2]...)
	if !bytes.Equal(data, want) {
		t.Fatalf("gather returned wrong bytes after cross-node scatter")
	}
}

func TestShardingIsMeasurableSpeedup(t *testing.T) {
	run := func(nodes int) sim.Time {
		p := mustPool(t, testOptions(nodes, 1))
		base, err := p.Alloc(1 << 20)
		if err != nil {
			t.Fatal(err)
		}
		data := fill(256<<10, 5)
		done, err := p.WriteOneSided(0, base, data)
		if err != nil {
			t.Fatal(err)
		}
		return done
	}
	t1, t4 := run(1), run(4)
	if t4 >= t1 {
		t.Fatalf("4-node write not faster than 1-node: %v vs %v — per-link bandwidth not independent", t4, t1)
	}
}

// primaryOf finds the primary node of the entry covering addr.
func primaryOf(t *testing.T, p *Pool, addr uint64) int {
	t.Helper()
	for _, e := range p.Table() {
		if addr >= e.VBase && addr < e.VBase+e.Size {
			return e.Homes[0].Node
		}
	}
	t.Fatalf("no placement entry covers %#x", addr)
	return -1
}

// buildFaulted builds the same deterministic placement twice: once clean
// to learn which node is the primary for the probe address, then again
// with a fault schedule installed on that node.
func buildFaulted(t *testing.T, opts Options, size uint64, cfg faults.Config) (p *Pool, base uint64, victim int) {
	t.Helper()
	clean := mustPool(t, opts)
	b, err := clean.Alloc(size)
	if err != nil {
		t.Fatal(err)
	}
	victim = primaryOf(t, clean, b)
	opts.Faults = make([]*faults.Config, opts.Nodes)
	opts.Faults[victim] = &cfg
	p = mustPool(t, opts)
	b2, err := p.Alloc(size)
	if err != nil {
		t.Fatal(err)
	}
	if b2 != b || primaryOf(t, p, b2) != victim {
		t.Fatalf("placement not reproducible across identical builds")
	}
	return p, b, victim
}

func TestFailoverDuringCrash(t *testing.T) {
	opts := testOptions(3, 2)
	pol := transport.DefaultPolicy()
	pol.MaxAttempts = 1 // fail fast: the pool's replicas are the retry
	pol.BreakerThreshold = 1
	pol.BreakerCooldown = 10 * sim.Millisecond
	opts.Policy = &pol
	p, base, victim := buildFaulted(t, opts, 8192, faults.Config{
		Seed: 3,
		Schedule: []faults.Event{
			{At: sim.Time(100 * sim.Microsecond), Kind: faults.Crash},
			{At: sim.Time(5 * sim.Millisecond), Kind: faults.Restart},
		},
	})
	data := fill(4096, 21)
	if _, err := p.WriteOneSided(0, base, data); err != nil {
		t.Fatal(err)
	}
	// Read while the victim is down: must be served by the replica.
	got := make([]byte, 4096)
	at := sim.Time(200 * sim.Microsecond)
	if _, err := p.ReadOneSided(at, base, got); err != nil {
		t.Fatalf("read during crash did not fail over: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("failover read returned wrong bytes")
	}
	// Second read: the victim's breaker is open, so failover is immediate.
	if _, err := p.ReadOneSided(at+sim.Time(10*sim.Microsecond), base, got); err != nil {
		t.Fatal(err)
	}
	ns := p.NodeStats()
	if ns[victim].Failovers == 0 {
		t.Fatalf("no failovers recorded against the crashed primary: %+v", ns[victim])
	}
	if p.Failovers() == 0 {
		t.Fatalf("pool-wide failover counter stayed zero")
	}
}

func TestWipeResyncRestoresPrimary(t *testing.T) {
	opts := testOptions(3, 2)
	pol := transport.DefaultPolicy()
	pol.MaxAttempts = 2
	pol.BreakerThreshold = 1
	pol.BreakerCooldown = 50 * sim.Microsecond // breaker closed again by the probe read
	opts.Policy = &pol
	p, base, victim := buildFaulted(t, opts, 8192, faults.Config{
		Seed: 3,
		Schedule: []faults.Event{
			{At: sim.Time(100 * sim.Microsecond), Kind: faults.Crash, LoseMemory: true},
			{At: sim.Time(200 * sim.Microsecond), Kind: faults.Restart},
		},
	})
	data := fill(4096, 77)
	if _, err := p.WriteOneSided(0, base, data); err != nil {
		t.Fatal(err)
	}
	// Probe well after the restart: the lazy wipe fires during this read,
	// the zeroed (but checksum-valid) payload is discarded via the stale
	// flag, the replica serves, and re-sync restores the primary.
	got := make([]byte, 4096)
	at := sim.Time(1 * sim.Millisecond)
	if _, err := p.ReadOneSided(at, base, got); err != nil {
		t.Fatalf("post-wipe read: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("post-wipe read returned wiped bytes — stale detection failed")
	}
	ns := p.NodeStats()
	if ns[victim].Resyncs == 0 {
		t.Fatalf("wiped node was never re-synced: %+v", ns[victim])
	}
	if ns[victim].Faults.Wipes == 0 {
		t.Fatalf("wipe never applied: %+v", ns[victim].Faults)
	}
	// After re-sync the primary serves directly: read again and confirm
	// the node's own memory has the bytes back.
	probe := make([]byte, 4096)
	e := p.Table()[0]
	if err := p.FarNode(victim).Read(e.Homes[0].Base, probe); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(probe, data) {
		t.Fatalf("re-sync did not restore the wiped node's memory")
	}
}

func TestReadRepairAfterPrimaryReadFailure(t *testing.T) {
	opts := testOptions(2, 2)
	pol := transport.DefaultPolicy()
	pol.MaxAttempts = 1       // a single corrupted attempt fails the read
	pol.BreakerThreshold = 50 // breaker never opens — the node stays "up"
	opts.Policy = &pol
	p, base, victim := buildFaulted(t, opts, 4096, faults.Config{
		Seed:        9,
		CorruptRate: 1, // every primary read is corrupted in flight
	})
	data := fill(512, 33)
	if _, err := p.WriteOneSided(0, base, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 512)
	if _, err := p.ReadOneSided(sim.Time(10*sim.Microsecond), base, got); err != nil {
		t.Fatalf("read with corrupting primary: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("replica read returned wrong bytes")
	}
	ns := p.NodeStats()
	if ns[victim].Repairs == 0 {
		t.Fatalf("no read-repair pushed to the failed primary: %+v", ns[victim])
	}
	if ns[victim].Net.Corruptions == 0 {
		t.Fatalf("corruption was configured but never detected")
	}
}

func TestFlushSyncsPendingWipesAndResyncs(t *testing.T) {
	opts := testOptions(2, 2)
	p, base, victim := buildFaulted(t, opts, 4096, faults.Config{
		Seed: 5,
		Schedule: []faults.Event{
			{At: sim.Time(100 * sim.Microsecond), Kind: faults.Crash, LoseMemory: true},
			{At: sim.Time(200 * sim.Microsecond), Kind: faults.Restart},
		},
	})
	data := fill(4096, 55)
	if _, err := p.WriteOneSided(0, base, data); err != nil {
		t.Fatal(err)
	}
	// No operation has touched the victim since the restart: the wipe is
	// still pending. Flush must apply it and re-sync from the replica.
	if _, err := p.Flush(sim.Time(1 * sim.Millisecond)); err != nil {
		t.Fatalf("flush: %v", err)
	}
	ns := p.NodeStats()
	if ns[victim].Faults.Wipes == 0 {
		t.Fatalf("flush did not force the pending wipe")
	}
	if ns[victim].Resyncs == 0 {
		t.Fatalf("flush did not re-sync the wiped node")
	}
	probe := make([]byte, 4096)
	e := p.Table()[0]
	var vb uint64
	for _, h := range e.Homes {
		if h.Node == victim {
			vb = h.Base
		}
	}
	if err := p.FarNode(victim).Read(vb, probe); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(probe, data) {
		t.Fatalf("flush re-sync did not restore wiped memory")
	}
}

func TestSingleReplicaWipeLosesData(t *testing.T) {
	opts := testOptions(2, 1) // R=1: no replica to recover from
	p, base, _ := buildFaulted(t, opts, 4096, faults.Config{
		Seed: 5,
		Schedule: []faults.Event{
			{At: sim.Time(100 * sim.Microsecond), Kind: faults.Crash, LoseMemory: true},
			{At: sim.Time(200 * sim.Microsecond), Kind: faults.Restart},
		},
	})
	if _, err := p.WriteOneSided(0, base, fill(4096, 11)); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4096)
	_, err := p.ReadOneSided(sim.Time(1*sim.Millisecond), base, got)
	if err == nil {
		t.Fatalf("R=1 wipe silently served zeros — stale data must surface as an error")
	}
}

func TestDirectStoreRoundTrip(t *testing.T) {
	p := mustPool(t, testOptions(4, 2))
	base, err := p.Alloc(32 << 10)
	if err != nil {
		t.Fatal(err)
	}
	data := fill(20<<10, 3)
	if err := p.Write(base+500, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := p.Read(base+500, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("direct store round-trip corrupted data")
	}
}

func TestUnmappedAddressErrors(t *testing.T) {
	p := mustPool(t, testOptions(2, 1))
	buf := make([]byte, 8)
	if _, err := p.ReadOneSided(0, farmem.DefaultBase+12345, buf); err == nil {
		t.Fatalf("read of unallocated pool address succeeded")
	}
}

// TestZeroOptionsPoolIsTheTestbed: a pool whose options name no link model
// and no node config runs on the testbed's — a read completes when it does on
// a pool given netmodel.DefaultConfig and farmem.DefaultNodeConfig, and the
// node reports the testbed's 64 GiB — instead of dividing by a zero message
// size or reporting no capacity.
func TestZeroOptionsPoolIsTheTestbed(t *testing.T) {
	read := func(opts Options) (sim.Time, uint64) {
		p := mustPool(t, opts)
		addr, err := p.Alloc(4096)
		if err != nil {
			t.Fatal(err)
		}
		done, err := p.ReadOneSided(0, addr, make([]byte, 4096))
		if err != nil {
			t.Fatal(err)
		}
		return done, p.NodeStats()[0].CapacityBytes
	}
	want, _ := read(Options{Nodes: 1, Net: netmodel.DefaultConfig(), NodeCfg: farmem.DefaultNodeConfig()})
	done, capacity := read(Options{Nodes: 1})
	if done != want || done < sim.Time(0).Add(netmodel.DefaultConfig().OneSidedCost(4096)) {
		t.Errorf("4 KiB read done at %v, want %v as on the testbed link", done, want)
	}
	if capacity != 64<<30 {
		t.Errorf("node capacity %d B, want the testbed's 64 GiB", capacity)
	}
}
