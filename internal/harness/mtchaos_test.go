package harness

import (
	"bytes"
	"testing"

	"mira/internal/apps/arraysum"
	"mira/internal/apps/seqscan"
	"mira/internal/cluster"
	"mira/internal/faults"
	"mira/internal/netmodel"
	"mira/internal/planner"
	"mira/internal/rt"
	"mira/internal/session"
	"mira/internal/sim"
	"mira/internal/trace"
	"mira/internal/workload"
)

// chaosPlan is the compilation every run of these tests executes.
func chaosPlan(t *testing.T, w workload.Workload, budget int64) *planner.Result {
	t.Helper()
	plan, err := planner.Plan(w, planner.Options{
		LocalBudget:   budget,
		Net:           netmodel.DefaultConfig(),
		MaxIterations: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// openPlan starts plan on cfg (no page prefetcher, like the serving layer
// these tests stand in for).
func openPlan(t *testing.T, w workload.Workload, plan *planner.Result, cfg rt.Config, tr *trace.Tracer) *session.Session {
	t.Helper()
	s, err := session.Open(session.Spec{
		Workload: w, Program: plan.Program, Config: cfg,
		Swap: session.NoPrefetch, Trace: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// openChaosCluster plans w and binds it to a 2-node R=2 pool with fc (if
// any) injected on node 0 — node 1 stays healthy, so replication must be
// able to ride out every fault without losing data.
func openChaosCluster(t *testing.T, w workload.Workload, budget int64, fc *faults.Config, tr *trace.Tracer) *session.Session {
	t.Helper()
	plan := chaosPlan(t, w, budget)
	cfg := plan.Config
	co := testClusterOpts(2)
	co.Seed = 5
	co.Policy = failFastPolicy()
	if fc != nil {
		co.Faults = []*faults.Config{fc, nil}
	}
	cfg.Cluster = co
	return openPlan(t, w, plan, cfg, tr)
}

// finishAndDump flushes s and dumps every far-placed object.
func finishAndDump(t *testing.T, s *session.Session) map[string][]byte {
	t.Helper()
	if _, err := s.Finish(false); err != nil {
		t.Fatal(err)
	}
	out, err := s.Dump()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestMultithreadedChaosRecoveryByteIdentical: a 4-thread group sharing one
// cluster-mode runtime survives a crash-wipe plus a partition mid-run, the
// wiped node is re-synced so the final far memory matches the fault-free
// run byte for byte, and two chaos runs with the same seed produce
// byte-identical traces and metrics.
func TestMultithreadedChaosRecoveryByteIdentical(t *testing.T) {
	const threads = 4
	const reps = 2
	mk := func() workload.Workload { return arraysum.New(arraysum.Config{N: 1 << 13, Seed: 3}) }
	budget := mk().FullMemoryBytes() / 3

	run := func(fc *faults.Config, horizon sim.Duration) (tb, mb []byte, dumps map[string][]byte, elapsed sim.Duration, stats []cluster.NodeStats) {
		tr := trace.New()
		s := openChaosCluster(t, mk(), budget, fc, tr)
		ths := make([]session.Thread, threads)
		for i := range ths {
			ths[i] = session.Thread{S: s, Reps: reps}
		}
		elapsed, _, err := session.RunThreads(ths)
		if err != nil {
			t.Fatal(err)
		}
		// Flush past both the join and the fault horizon: degraded-mode ops
		// complete instantly, so a chaos run can join while the victim is
		// still inside a crash window.
		s.Clock().AdvanceTo(sim.Time(0).Add(horizon))
		dumps = finishAndDump(t, s)
		var tbuf, mbuf bytes.Buffer
		if err := tr.WriteTrace(&tbuf); err != nil {
			t.Fatal(err)
		}
		if err := tr.Registry().WriteJSON(&mbuf); err != nil {
			t.Fatal(err)
		}
		return tbuf.Bytes(), mbuf.Bytes(), dumps, elapsed, s.RT.ClusterStats()
	}

	// The fault-free run fixes the reference contents and the horizon the
	// chaos windows are placed in.
	_, _, ref, t0, _ := run(nil, 0)
	fc := &faults.Config{
		Seed: 11,
		Schedule: []faults.Event{
			{At: sim.Time(t0 / 3), Kind: faults.Crash, LoseMemory: true},
			{At: sim.Time(t0 / 2), Kind: faults.Restart},
			{At: sim.Time(2 * t0 / 3), Kind: faults.PartitionStart},
			{At: sim.Time(2*t0/3 + t0/12), Kind: faults.PartitionEnd},
		},
	}
	t1, m1, d1, _, st := run(fc, t0)
	t2, m2, d2, _, _ := run(fc, t0)

	if got := st[0].Faults.Wipes; got == 0 {
		t.Error("victim node never wiped — the schedule exercised nothing")
	}
	if st[0].Failovers == 0 {
		t.Error("no reads failed over to the healthy replica")
	}
	for name, want := range ref {
		if !bytes.Equal(d1[name], want) {
			t.Errorf("object %q: chaos run diverges from fault-free contents", name)
		}
	}
	if !bytes.Equal(t1, t2) {
		t.Error("traces diverge across identical chaos runs")
	}
	if !bytes.Equal(m1, m2) {
		t.Error("metrics diverge across identical chaos runs")
	}
	for name := range d1 {
		if !bytes.Equal(d1[name], d2[name]) {
			t.Errorf("object %q: far memory diverges across identical chaos runs", name)
		}
	}
}

// TestClusterReadRepairWritebackRaceConverges pins the race between
// read-repair and the degraded-mode write-back queue: a partition window
// makes reads fail over to the healthy replica (pushing repair snapshots
// back toward the dark node) while dirty-line write-backs queue in the same
// node's overlay. After the partition heals, the drain plus re-sync must
// converge — every mutation survives, no stale repair snapshot rolls a line
// back. Idle gaps between requests are load-bearing: they let the breaker
// close and the drain interleave with fresh writes, which is exactly the
// interleaving that lost data before the overlay kept non-overlapping
// entries.
func TestClusterReadRepairWritebackRaceConverges(t *testing.T) {
	mk := func() workload.Workload { return seqscan.New(seqscan.Config{N: 1 << 11, Seed: 1}) }
	budget := mk().FullMemoryBytes() / 2
	const reps = 14
	// The gap must sit inside the breaker cooldown (50µs under the
	// fail-fast policy) so a tripped breaker is still open at the next
	// admission check — that is what sheds work and leaves queued
	// write-backs behind for the drain to race.
	const gap = 40 * sim.Microsecond
	fc := &faults.Config{
		Seed:      5,
		ErrorRate: 0.02,
		DelayRate: 0.02,
		DelayMin:  2 * sim.Microsecond,
		DelayMax:  10 * sim.Microsecond,
		Schedule: []faults.Event{
			{At: sim.Time(300 * sim.Microsecond), Kind: faults.PartitionStart},
			{At: sim.Time(450 * sim.Microsecond), Kind: faults.PartitionEnd},
			{At: sim.Time(800 * sim.Microsecond), Kind: faults.PartitionStart},
			{At: sim.Time(950 * sim.Microsecond), Kind: faults.PartitionEnd},
		},
	}
	s := openChaosCluster(t, mk(), budget, fc, nil)
	r, clk := s.RT, s.Clock()
	executed := 0
	for i := 0; i < reps; i++ {
		if i > 0 {
			clk.Advance(gap)
		}
		// Shed mutating work while the breaker is open (degraded read-only
		// mode) — the skip pattern that interleaves drains with new writes.
		if r.Link().BreakerOpen(clk.Now()) {
			continue
		}
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		executed++
	}
	got := finishAndDump(t, s)

	var repairs, queued int64
	for _, ns := range r.ClusterStats() {
		repairs += ns.Repairs
		queued += ns.Net.QueuedWritebacks
		t.Logf("node %d: reads=%d writes=%d failovers=%d repairs=%d resyncs=%d ioErr=%d part=%d trips=%d queuedWB=%d",
			ns.Node, ns.Reads, ns.Writes, ns.Failovers, ns.Repairs, ns.Resyncs,
			ns.Faults.IOErrors, ns.Faults.Partitioned, ns.Net.BreakerTrips, ns.Net.QueuedWritebacks)
	}
	if repairs == 0 {
		t.Error("no read-repair fired — the race was not exercised")
	}
	if queued == 0 {
		t.Error("no write-back queued in the overlay — the race was not exercised")
	}
	if executed == 0 || executed == reps {
		t.Errorf("executed %d/%d requests — degraded windows never shed work", executed, reps)
	}

	// Native replay of exactly the executed count is the convergence oracle.
	w2 := mk()
	plan := chaosPlan(t, w2, budget)
	ref := openPlan(t, w2, plan, plan.Config, nil)
	for i := 0; i < executed; i++ {
		if _, err := ref.Run(); err != nil {
			t.Fatal(err)
		}
	}
	want := finishAndDump(t, ref)
	for name, wd := range want {
		if !bytes.Equal(got[name], wd) {
			t.Errorf("object %q: chaos cluster diverges from native replay of %d requests (dirty lines lost or rolled back)",
				name, executed)
		}
	}
}
