package harness

import (
	"bytes"
	"fmt"
	"testing"

	"mira/internal/apps/arraysum"
	"mira/internal/apps/graphtraverse"
	"mira/internal/cluster"
	"mira/internal/farmem"
	"mira/internal/faults"
	"mira/internal/netmodel"
	"mira/internal/sim"
	"mira/internal/transport"
	"mira/internal/workload"
)

// testClusterOpts shards across n nodes with a small stripe so even the
// test-sized heaps actually spread, and R=2 whenever there is a second node
// to replicate onto.
func testClusterOpts(n int) *cluster.Options {
	r := 2
	if n < 2 {
		r = 1
	}
	return &cluster.Options{
		Nodes:       n,
		Replicas:    r,
		Seed:        1,
		StripeBytes: 4096,
		NodeCfg:     farmem.DefaultNodeConfig(),
		Net:         netmodel.DefaultConfig(),
	}
}

// TestClusterDifferentialByteIdentical: random programs must compute
// byte-identical final state whether far memory is one node or a sharded,
// replicated pool — placement, striping, and replication are invisible to
// program semantics. Covers node counts 1, 2, and 4.
func TestClusterDifferentialByteIdentical(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			w := generate(seed)
			budget := w.FullMemoryBytes() / 3
			ref, err := runAndDump(t, Native, w, budget)
			if err != nil {
				t.Fatalf("native: %v", err)
			}
			for _, n := range []int{1, 2, 4} {
				for _, sys := range []System{Mira, FastSwap, Leap} {
					got, err := runAndDumpOn(t, sys, w, budget, testClusterOpts(n))
					if err != nil {
						t.Fatalf("%s nodes=%d: %v", sys, n, err)
					}
					for name, want := range ref {
						if !bytes.Equal(got[name], want) {
							t.Fatalf("%s nodes=%d: object %q diverges from native", sys, n, name)
						}
					}
				}
			}
		})
	}
}

// TestClusterAppsVerifyAcrossNodeCounts drives the harness-level -nodes
// plumbing end to end: real apps verified against their oracles at node
// counts 1, 2, and 4, with per-node stats reported.
func TestClusterAppsVerifyAcrossNodeCounts(t *testing.T) {
	ws := map[string]func() workload.Workload{
		"arraysum": func() workload.Workload { return arraysum.New(arraysum.Config{N: 1 << 13, Seed: 1}) },
		"graphtraverse": func() workload.Workload {
			return graphtraverse.New(graphtraverse.Config{Edges: 4096, Nodes: 4096, Passes: 1, Seed: 21})
		},
	}
	for name, mk := range ws {
		for _, n := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/nodes%d", name, n), func(t *testing.T) {
				w := mk()
				for _, sys := range []System{Mira, FastSwap} {
					res, err := Run(sys, w, Options{
						Budget:   w.FullMemoryBytes() / 3,
						Verify:   true,
						Nodes:    n,
						Replicas: 2,
					})
					if err != nil {
						t.Fatalf("%s: %v", sys, err)
					}
					if len(res.Cluster) != n {
						t.Fatalf("%s: %d node stats for %d nodes", sys, len(res.Cluster), n)
					}
					var reads, writes int64
					for _, ns := range res.Cluster {
						reads += ns.Reads
						writes += ns.Writes
					}
					if reads == 0 && writes == 0 {
						t.Fatalf("%s: cluster run recorded no node traffic", sys)
					}
				}
			})
		}
	}
}

// failFastPolicy makes each cluster member give up immediately: in a
// replicated pool the replicas are the retry, and transport-internal
// persistence would mask the failover path this test exists to exercise.
func failFastPolicy() *transport.Policy {
	p := transport.FailFastPolicy()
	return &p
}

// TestClusterCrashWipeFailoverRecovers is the multi-node acceptance check:
// kill one far node mid-run — with memory loss — and the run must still
// produce byte-identical output by failing reads over to the surviving
// replica (R=2) and re-syncing the wiped node after restart.
func TestClusterCrashWipeFailoverRecovers(t *testing.T) {
	w := graphtraverse.New(graphtraverse.Config{Edges: 4096, Nodes: 4096, Passes: 1, Seed: 21})
	budget := w.FullMemoryBytes() / 3
	base, err := Run(FastSwap, w, Options{Budget: budget, Nodes: 3, Replicas: 2, StripeBytes: 4096})
	if err != nil {
		t.Fatalf("fault-free cluster run: %v", err)
	}
	t0 := base.Time
	const victim = 0
	fc := faults.Config{
		Seed: 7,
		Schedule: []faults.Event{
			{At: sim.Time(t0 / 3), Kind: faults.Crash, LoseMemory: true},
			{At: sim.Time(2 * t0 / 3), Kind: faults.Restart},
		},
	}
	opts := Options{
		Budget:      budget,
		Verify:      true,
		Nodes:       3,
		Replicas:    2,
		StripeBytes: 4096,
		FaultNode:   victim,
		Faults:      &fc,
		Resilience:  failFastPolicy(),
	}
	res, err := Run(FastSwap, w, opts)
	if err != nil {
		t.Fatalf("crash-wipe run failed verification or execution: %v", err)
	}
	if got := res.Cluster[victim].Faults.Wipes; got == 0 {
		t.Error("victim never wiped — the schedule exercised nothing")
	}
	var failovers, resyncs int64
	for _, ns := range res.Cluster {
		failovers += ns.Failovers
		resyncs += ns.Resyncs
	}
	if failovers == 0 {
		t.Error("no reads failed over to a replica during the crash window")
	}
	if resyncs == 0 {
		t.Error("the wiped node was never re-synced from its replicas")
	}
	// Determinism: the same seed and schedule replay identically.
	res2, err := Run(FastSwap, w, opts)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if res2.Time != res.Time {
		t.Errorf("replay time diverged: %v vs %v", res.Time, res2.Time)
	}
	for i := range res.Cluster {
		if res2.Cluster[i] != res.Cluster[i] {
			t.Errorf("node %d stats diverged on replay:\n  %+v\nvs\n  %+v",
				i, res.Cluster[i], res2.Cluster[i])
		}
	}
	t.Logf("t0=%v crashed=%v failovers=%d resyncs=%d wipes=%d",
		t0, res.Time, failovers, resyncs, res.Cluster[victim].Faults.Wipes)
}

// TestClusterAIFMCrashWipeFailoverRecovers: AIFM keeps its remotable objects
// on the same pool as every other system, so it rides out the same failure:
// node 1 of a 4-node R=2 pool crashes with memory loss mid-run, reads fail
// over to the surviving replicas, the node is re-synced after restart, and
// the output verifies and replays bit-identically.
func TestClusterAIFMCrashWipeFailoverRecovers(t *testing.T) {
	w := graphtraverse.New(graphtraverse.Config{Edges: 4096, Nodes: 4096, Passes: 1, Seed: 21})
	opts := Options{Budget: w.FullMemoryBytes() / 2, Nodes: 4, Replicas: 2, StripeBytes: 4096}
	base, err := Run(AIFM, w, opts)
	if err != nil || base.Failed {
		t.Fatalf("fault-free cluster run: %v %s", err, base.FailReason)
	}
	t0 := base.Time
	const victim = 1
	opts.Verify, opts.FaultNode, opts.Resilience = true, victim, failFastPolicy()
	opts.Faults = &faults.Config{
		Seed: 7,
		Schedule: []faults.Event{
			{At: sim.Time(t0 / 3), Kind: faults.Crash, LoseMemory: true},
			{At: sim.Time(2 * t0 / 3), Kind: faults.Restart},
		},
	}
	res, err := Run(AIFM, w, opts)
	if err != nil || res.Failed {
		t.Fatalf("crash-wipe run failed verification or execution: %v %s", err, res.FailReason)
	}
	if len(res.Cluster) != 4 {
		t.Fatalf("%d node rows for 4 nodes", len(res.Cluster))
	}
	v := res.Cluster[victim]
	if v.Faults.Wipes == 0 {
		t.Error("victim never wiped — the schedule exercised nothing")
	}
	if v.Failovers == 0 {
		t.Error("no read the victim should have served failed over to a replica")
	}
	if v.Resyncs == 0 {
		t.Error("the wiped node was never re-synced from its replicas")
	}
	res2, err := Run(AIFM, w, opts)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if res2.Time != res.Time || res2.Net != res.Net || res2.Messages != res.Messages || res2.BytesMoved != res.BytesMoved {
		t.Errorf("replay diverged: %v, %+v, %d messages, %d B vs %v, %+v, %d messages, %d B",
			res2.Time, res2.Net, res2.Messages, res2.BytesMoved, res.Time, res.Net, res.Messages, res.BytesMoved)
	}
	for i := range res.Cluster {
		if res2.Cluster[i] != res.Cluster[i] {
			t.Errorf("node %d stats diverged on replay:\n  %+v\nvs\n  %+v", i, res.Cluster[i], res2.Cluster[i])
		}
	}
	t.Logf("t0=%v crashed=%v failovers=%d resyncs=%d wipes=%d", t0, res.Time, v.Failovers, v.Resyncs, v.Faults.Wipes)
}
