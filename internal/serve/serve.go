// Package serve is the multi-tenant serving layer: an open-loop seeded
// workload generator drives a mix of tenants — each an existing Mira
// application bound to its own replicated far-memory pool — through one
// deterministic interleaved scheduler, with the co-located tenants
// contending for a single compute-side NIC under weighted-fair arbitration
// (internal/netmodel), elastic reclaim of idle tenants' local DRAM
// (rt.SetSectionScale), and admission control with load shedding: a bounded
// admission queue, deterministic rejection when the projected queueing
// delay exceeds a tenant's SLO, and a degraded read-only mode that sheds
// mutating requests while the transport breaker is open.
//
// Everything — arrivals, admission decisions, reclaim leases, fault
// injection — is a pure function of the seed and the virtual-time event
// order, so two runs with the same seed produce byte-identical traces,
// metrics, and far-memory contents, even under a chaos schedule that
// crash-wipes and partitions pool nodes mid-serving.
package serve

import (
	"fmt"

	"mira/internal/cluster"
	"mira/internal/farmem"
	"mira/internal/faults"
	"mira/internal/netmodel"
	"mira/internal/planner"
	"mira/internal/rt"
	"mira/internal/session"
	"mira/internal/sim"
	"mira/internal/trace"
	"mira/internal/transport"
	"mira/internal/workload"
)

// Rejection reasons (keys of TenantResult.Rejected).
const (
	// RejectQueue sheds a request because the admission queue backlog
	// exceeded the tenant's QueueCap.
	RejectQueue = "queue"
	// RejectSLO sheds a request because queue wait plus the EWMA service
	// time projected past the tenant's SLO.
	RejectSLO = "slo"
	// RejectDegraded sheds a mutating request while the tenant's
	// transport breaker is open (degraded read-only mode).
	RejectDegraded = "degraded"
)

// TenantSpec describes one tenant of the serving mix.
type TenantSpec struct {
	// Name labels the tenant in metrics, traces, and link arbitration.
	Name string
	// Workload is the application every request executes once.
	Workload workload.Workload
	// Mutating marks workloads whose execution writes far memory.
	// Mutating tenants run single-worker (requests are not idempotent
	// and must serialize) and are shed while the breaker is open.
	Mutating bool
	// Weight is the tenant's weighted-fair link share (default 1).
	Weight float64
	// Budget is the tenant's local-DRAM budget handed to the planner.
	Budget int64
	// Workers is the tenant's worker-thread count (default 1; must be 1
	// when Mutating).
	Workers int
	// Requests is the open-loop arrival count.
	Requests int
	// Mean is the mean interarrival time.
	Mean sim.Duration
	// Arrivals selects the arrival process (default Poisson).
	Arrivals Process
	// Burst is the Bursty on-phase intensity (default 4).
	Burst float64
	// SLO bounds the projected per-request delay (queue wait + EWMA
	// service); 0 disables the SLO admission check.
	SLO sim.Duration
	// QueueCap bounds the admission queue backlog; 0 disables the
	// bounded-queue admission check.
	QueueCap int
}

// Options configures a serving run.
type Options struct {
	// Seed roots every derived stream (arrivals, placement, faults).
	Seed uint64
	// Admission enables admission control; without it every request is
	// admitted no matter the backlog.
	Admission bool
	// Elastic enables the reclaimer: idle tenants' cache sections are
	// shrunk so loaded tenants can grow, restored on reactivation.
	Elastic bool
	// Faults names a fault schedule (faults.Names) injected on node 0 of
	// every tenant's pool; "" or "none" serves fault-free.
	Faults string
	// Horizon places the fault schedule's windows; 0 estimates it from
	// the arrival schedules.
	Horizon sim.Duration
	// Nodes and Replicas shape each tenant's pool (defaults 2 and 2, so
	// one faulty node never loses data).
	Nodes, Replicas int
	// Trace collects spans and metrics (nil: metrics only, internally).
	Trace *trace.Tracer
	// ReclaimInterval is the reclaimer's polling period (default 200µs).
	ReclaimInterval sim.Duration
	// IdleAfter is how long without activity marks a tenant idle
	// (default 1ms).
	IdleAfter sim.Duration
}

// TenantResult is one tenant's serving outcome.
type TenantResult struct {
	Name      string
	Requests  int
	Admitted  int
	Completed int
	// Rejected counts shed requests by reason.
	Rejected map[string]int
	// P50/P95/P99/Max are exact percentiles over admitted requests'
	// latencies (completion − arrival).
	P50, P95, P99, Max sim.Duration
	// Dumps holds every far-placed object's post-flush far-memory
	// contents, for integrity comparison against a native replay.
	Dumps map[string][]byte
}

// RejectedTotal sums the shed requests.
func (t TenantResult) RejectedTotal() int {
	n := 0
	for _, v := range t.Rejected {
		n += v
	}
	return n
}

// Result is a serving run's outcome.
type Result struct {
	// Elapsed is the fork-join virtual time of the whole mix.
	Elapsed sim.Duration
	// Tenants reports per-tenant outcomes in spec order.
	Tenants []TenantResult
	// Leases counts elastic-reclaim leases taken.
	Leases int
	// BytesOnWire sums what actually crossed every tenant pool's links
	// (post-codec); BytesEffective adds back what the wire codecs saved.
	// Equal when compression is off.
	BytesOnWire    int64
	BytesEffective int64
}

// tenant is one tenant's live serving state. All mutation happens from
// scheduler threads, which run one at a time — no locks.
type tenant struct {
	spec     TenantSpec
	s        *session.Session
	rt       *rt.Runtime
	arrivals []sim.Time

	next       int // next unclaimed arrival index
	admitted   int
	completed  int
	rejected   map[string]int
	ewma       sim.Duration // EWMA of service time (admission projection)
	lastActive sim.Time
	shrunk     bool

	lat  *trace.Reservoir
	mAdm *trace.Counter
	mRej map[string]*trace.Counter
	trc  *trace.Buffer
}

// lease is one elastic-reclaim loan: the donor's sections are shrunk so the
// borrower's can grow. A single lease is outstanding at a time.
type lease struct {
	donor, borrower *tenant
}

// Run serves the tenant mix to completion and reports per-tenant outcomes.
func Run(specs []TenantSpec, opts Options) (*Result, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("serve: no tenants")
	}
	if opts.Nodes <= 0 {
		opts.Nodes = 2
	}
	if opts.Replicas <= 0 {
		opts.Replicas = 2
	}
	if opts.ReclaimInterval <= 0 {
		opts.ReclaimInterval = 200 * sim.Microsecond
	}
	if opts.IdleAfter <= 0 {
		opts.IdleAfter = sim.Millisecond
	}
	if opts.Faults == "none" {
		opts.Faults = ""
	}
	horizon := opts.Horizon
	seen := map[string]bool{}
	for i := range specs {
		s := &specs[i]
		if s.Name == "" || seen[s.Name] {
			return nil, fmt.Errorf("serve: tenant %d: missing or duplicate name %q", i, s.Name)
		}
		seen[s.Name] = true
		if s.Workers <= 0 {
			s.Workers = 1
		}
		if s.Mutating && s.Workers != 1 {
			return nil, fmt.Errorf("serve: tenant %q: mutating workloads are not idempotent and must run single-worker", s.Name)
		}
		if s.Requests <= 0 || s.Mean <= 0 {
			return nil, fmt.Errorf("serve: tenant %q: Requests and Mean must be positive", s.Name)
		}
		if s.Weight <= 0 {
			s.Weight = 1
		}
		if s.Arrivals == "" {
			s.Arrivals = Poisson
		}
		if est := sim.Duration(int64(s.Mean) * int64(s.Requests)); est > horizon {
			horizon = est
		}
	}

	reg := trace.NewRegistry()
	if opts.Trace != nil {
		reg = opts.Trace.Registry()
	}
	net := netmodel.DefaultConfig()
	bw := netmodel.NewBandwidth(net)

	tenants := make([]*tenant, len(specs))
	// Everything the result carries (latencies, counters, dumps) is a copy:
	// the tenants' far memory goes back however Run ends.
	defer func() {
		for _, t := range tenants {
			if t != nil {
				t.s.Close()
			}
		}
	}()
	for i := range specs {
		t, err := buildTenant(specs[i], opts, net, bw, horizon)
		if err != nil {
			return nil, err
		}
		bw.SetTenantWeight(t.spec.Name, t.spec.Weight)
		t.lat = reg.Reservoir("serve.latency{tenant=" + t.spec.Name + "}")
		t.mAdm = reg.Counter("serve.admitted{tenant=" + t.spec.Name + "}")
		t.mRej = map[string]*trace.Counter{}
		for _, reason := range []string{RejectQueue, RejectSLO, RejectDegraded} {
			t.mRej[reason] = reg.Counter("serve.rejected{tenant=" + t.spec.Name + ",reason=" + reason + "}")
		}
		if opts.Trace != nil {
			t.trc = opts.Trace.Buffer("serve/" + t.spec.Name)
		}
		tenants[i] = t
	}

	res := &Result{}
	var lv *lease
	var threads []session.Thread
	for _, t := range tenants {
		for w := 0; w < t.spec.Workers; w++ {
			t := t
			threads = append(threads, session.Thread{S: t.s, Body: func(th *sim.Thread, yield func()) error {
				return serveWorker(th, yield, t, bw, opts, &lv)
			}})
		}
	}
	if opts.Elastic {
		threads = append(threads, session.Thread{Body: func(th *sim.Thread, _ func()) error {
			return reclaimer(th, tenants, opts, &lv, &res.Leases)
		}})
	}
	var err error
	if res.Elapsed, _, err = session.RunThreads(threads); err != nil {
		return nil, err
	}

	// Final flush + integrity dumps on a post-join clock, one tenant after
	// the other: every queued write-back reaches far memory (chaos windows
	// are long over by the time the clock passes the horizon).
	fclk := sim.Time(0).Add(res.Elapsed)
	for _, t := range tenants {
		t.s.Clock().AdvanceTo(fclk)
		st, err := t.s.Finish(false)
		if err != nil {
			return nil, fmt.Errorf("serve: tenant %q: final flush: %w", t.spec.Name, err)
		}
		fclk = t.s.Clock().Now()
		dumps, err := t.s.Dump()
		if err != nil {
			return nil, fmt.Errorf("serve: tenant %q: %w", t.spec.Name, err)
		}
		res.Tenants = append(res.Tenants, TenantResult{
			Name:      t.spec.Name,
			Requests:  t.spec.Requests,
			Admitted:  t.admitted,
			Completed: t.completed,
			Rejected:  t.rejected,
			P50:       sim.Duration(t.lat.P50()),
			P95:       sim.Duration(t.lat.P95()),
			P99:       sim.Duration(t.lat.P99()),
			Max:       sim.Duration(t.lat.Max()),
			Dumps:     dumps,
		})
		res.BytesOnWire += st.BytesOnWire
		res.BytesEffective += st.BytesEffective
	}
	return res, nil
}

// planTenant is the tenant's compilation; NativeReplay plans identically.
func planTenant(spec TenantSpec, net netmodel.Config) (*planner.Result, error) {
	return planner.Plan(spec.Workload, planner.Options{
		LocalBudget:   spec.Budget,
		Net:           net,
		MaxIterations: 3,
	})
}

// open starts the tenant's planned program on cfg. Serving runs no page
// prefetcher on the plan's swap pool.
func open(spec TenantSpec, plan *planner.Result, cfg rt.Config, bw *netmodel.Bandwidth, tr *trace.Tracer) (*session.Session, error) {
	return session.Open(session.Spec{
		Workload: spec.Workload,
		Program:  plan.Program,
		Config:   cfg,
		Swap:     session.NoPrefetch,
		Link:     bw,
		Trace:    tr,
	})
}

// buildTenant plans the tenant's workload and binds it to a replicated pool
// of its own, with the chaos schedule (if any) on node 0.
func buildTenant(spec TenantSpec, opts Options, net netmodel.Config, bw *netmodel.Bandwidth, horizon sim.Duration) (*tenant, error) {
	plan, err := planTenant(spec, net)
	if err != nil {
		return nil, fmt.Errorf("serve: tenant %q: plan: %w", spec.Name, err)
	}
	cfg := plan.Config
	pol := transport.FailFastPolicy()
	co := &cluster.Options{
		Nodes:       opts.Nodes,
		Replicas:    opts.Replicas,
		Seed:        sim.SplitSeed(opts.Seed, "cluster/"+spec.Name),
		StripeBytes: 4096,
		NodeCfg:     farmem.DefaultNodeConfig(),
		Net:         net,
		Policy:      &pol,
	}
	if opts.Faults != "" {
		fc, err := faults.NamedScaled(opts.Faults, sim.SplitSeed(opts.Seed, "faults/"+spec.Name), horizon)
		if err != nil {
			return nil, err
		}
		co.Faults = make([]*faults.Config, opts.Nodes)
		co.Faults[0] = &fc
	}
	cfg.Cluster = co
	s, err := open(spec, plan, cfg, bw, opts.Trace)
	if err != nil {
		return nil, fmt.Errorf("serve: tenant %q: runtime: %w", spec.Name, err)
	}
	rng := sim.NewRNG(sim.SplitSeed(opts.Seed, "arrivals/"+spec.Name))
	return &tenant{
		spec:     spec,
		s:        s,
		rt:       s.RT,
		arrivals: genArrivals(rng, spec.Arrivals, spec.Requests, spec.Mean, spec.Burst),
		rejected: map[string]int{},
	}, nil
}

// serveWorker is one tenant worker: claim the next arrival, wait for it,
// decide admission, execute, record. Workers of one tenant drain a shared
// arrival schedule in index order.
func serveWorker(th *sim.Thread, yieldTid func(), t *tenant, bw *netmodel.Bandwidth, opts Options, lv **lease) error {
	clk := th.Clock()
	// Re-assert identity after every resume: another tenant's thread ran
	// between our yield and this resume, and both the runtime's per-tid
	// attribution (yieldTid) and the link's fair-share accounting follow
	// the active thread.
	yield := func() {
		yieldTid()
		bw.SetActiveTenant(t.spec.Name)
	}
	for {
		i := t.next
		if i >= len(t.arrivals) {
			return nil
		}
		t.next++
		a := t.arrivals[i]
		if clk.Now() < a {
			clk.AdvanceTo(a) // idle until the request arrives
		}
		yield()
		now := clk.Now()
		wait := now.Sub(a)
		t.lastActive = now
		if opts.Admission {
			if reason := shedReason(t, now, wait); reason != "" {
				t.rejected[reason]++
				t.mRej[reason].Inc()
				if t.trc != nil {
					t.trc.Instant(now, "serve", "reject",
						trace.S("tenant", t.spec.Name), trace.S("reason", reason), trace.I("req", int64(i)))
				}
				continue
			}
		}
		// A shrunken tenant reactivates here: return the lease before
		// serving, charging the reactivation stall to this request.
		if l := *lv; l != nil && l.donor == t {
			if err := restoreLease(clk, l); err != nil {
				return err
			}
			*lv = nil
		}
		t.admitted++
		t.mAdm.Inc()
		start := now
		if err := t.s.Exec(clk, yield); err != nil {
			return fmt.Errorf("serve: tenant %q request %d: %w", t.spec.Name, i, err)
		}
		end := clk.Now()
		service := end.Sub(start)
		t.lat.Observe(int64(end.Sub(a)))
		if t.ewma == 0 {
			t.ewma = service
		} else {
			t.ewma = (3*t.ewma + service) / 4
		}
		t.completed++
		t.lastActive = end
		if t.trc != nil {
			t.trc.Span(a, end, "serve", "request",
				trace.S("tenant", t.spec.Name), trace.I("req", int64(i)),
				trace.I("wait_ns", int64(wait)))
		}
	}
}

// shedReason applies the admission checks in a fixed order and returns the
// first violated one ("" admits).
func shedReason(t *tenant, now sim.Time, wait sim.Duration) string {
	if t.spec.QueueCap > 0 {
		backlog := 0
		for j := t.next; j < len(t.arrivals) && t.arrivals[j] <= now; j++ {
			backlog++
		}
		if backlog > t.spec.QueueCap {
			return RejectQueue
		}
	}
	if t.spec.SLO > 0 && t.ewma > 0 && wait+t.ewma > t.spec.SLO {
		return RejectSLO
	}
	if t.spec.Mutating && t.rt.Link().BreakerOpen(now) {
		return RejectDegraded
	}
	return ""
}

// reclaimer is the elastic-reclaim thread: every interval it pairs the
// first idle tenant (donor) with the most backlogged one (borrower), shrinks
// the donor to a quarter of its cache budget, and grows the borrower by the
// freed bytes. One lease at a time; the donor's next claim restores it.
func reclaimer(th *sim.Thread, tenants []*tenant, opts Options, lv **lease, leases *int) error {
	clk := th.Clock()
	for {
		done := true
		for _, t := range tenants {
			if t.next < len(t.arrivals) {
				done = false
				break
			}
		}
		if done {
			return nil
		}
		clk.Advance(opts.ReclaimInterval)
		th.Yield()
		if *lv != nil {
			continue
		}
		now := clk.Now()
		var donor, borrower *tenant
		bestBacklog := 0
		for _, t := range tenants {
			if donor == nil && !t.shrunk && t.next < len(t.arrivals) &&
				now.Sub(t.lastActive) > opts.IdleAfter && t.arrivals[t.next] > now.Add(opts.IdleAfter) {
				donor = t
				continue
			}
			backlog := 0
			for j := t.next; j < len(t.arrivals) && t.arrivals[j] <= now; j++ {
				backlog++
			}
			if backlog > bestBacklog {
				bestBacklog = backlog
				borrower = t
			}
		}
		if donor == nil || borrower == nil || donor == borrower {
			continue
		}
		freed := donor.rt.SectionLiveBytes() * 3 / 4
		base := borrower.rt.SectionLiveBytes()
		if base <= 0 || freed <= 0 {
			continue
		}
		grow := 1 + float64(freed)/float64(base)
		if grow > 2 {
			grow = 2
		}
		if err := donor.rt.SetSectionScale(clk, 0.25); err != nil {
			return err
		}
		if err := borrower.rt.SetSectionScale(clk, grow); err != nil {
			return err
		}
		donor.shrunk = true
		*lv = &lease{donor: donor, borrower: borrower}
		*leases++
		if donor.trc != nil {
			donor.trc.Instant(clk.Now(), "serve", "reclaim.lease",
				trace.S("donor", donor.spec.Name), trace.S("borrower", borrower.spec.Name))
		}
	}
}

// restoreLease returns a lease: both parties back to their bound sizes,
// charged to clk (the reactivating worker).
func restoreLease(clk *sim.Clock, l *lease) error {
	if err := l.borrower.rt.SetSectionScale(clk, 1); err != nil {
		return err
	}
	if err := l.donor.rt.SetSectionScale(clk, 1); err != nil {
		return err
	}
	l.donor.shrunk = false
	if l.donor.trc != nil {
		l.donor.trc.Instant(clk.Now(), "serve", "reclaim.restore",
			trace.S("donor", l.donor.spec.Name))
	}
	return nil
}

// NativeReplay executes spec's workload reps times on a fault-free
// one-node runtime planned identically to the serving tenant, and
// returns its far-object dumps — the integrity reference: a chaos-serving
// run that admitted `reps` requests must leave byte-identical far memory.
func NativeReplay(spec TenantSpec, reps int) (map[string][]byte, error) {
	plan, err := planTenant(spec, netmodel.DefaultConfig())
	if err != nil {
		return nil, err
	}
	s, err := open(spec, plan, plan.Config, nil, nil)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	for rep := 0; rep < reps; rep++ {
		if _, err := s.Run(); err != nil {
			return nil, err
		}
	}
	if _, err := s.Finish(false); err != nil {
		return nil, err
	}
	return s.Dump()
}
