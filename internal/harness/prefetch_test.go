package harness

import (
	"bytes"
	"strings"
	"testing"

	"mira/internal/apps/graphtraverse"
	"mira/internal/apps/stridescan"
	"mira/internal/faults"
	"mira/internal/prefetch"
	"mira/internal/sim"
	"mira/internal/trace"
	"mira/internal/workload"
)

// prefetchApps covers both access shapes the zoo distinguishes: an affine
// strided scan (programmed's home turf) and an indirect repeating graph
// traversal (history's home turf).
func prefetchApps() map[string]workload.Workload {
	return map[string]workload.Workload{
		"graphtraverse": graphtraverse.New(graphtraverse.Config{Edges: 2048, Nodes: 512, Passes: 2, Seed: 7}),
		"stridescan":    stridescan.New(stridescan.Config{N: 1 << 12, Seed: 1}),
	}
}

// linePolicies is every zoo policy plus the line plane's compiled arm.
func linePolicies() []string { return append(prefetch.Names(), prefetch.Compiled) }

// prefetchCell runs one (plane, policy, app) cell with tracing attached and
// returns the result plus the serialized trace and metrics.
func prefetchCell(t *testing.T, plane, policy string, w workload.Workload) (Result, string, string) {
	t.Helper()
	tr := trace.New()
	opts := Options{Budget: w.FullMemoryBytes() / 4, Verify: true, Trace: tr}
	spec := prefetch.Spec{Policy: policy}
	var res Result
	var err error
	if plane == "page" {
		res, err = RunPagePolicy(w, opts, spec)
	} else {
		res, err = RunLinePolicy(w, opts, spec)
	}
	if err != nil {
		t.Fatalf("%s/%s: %v", plane, policy, err)
	}
	if res.Failed {
		t.Fatalf("%s/%s failed: %s", plane, policy, res.FailReason)
	}
	var tb, mb bytes.Buffer
	if err := tr.WriteTrace(&tb); err != nil {
		t.Fatal(err)
	}
	if err := tr.Registry().WriteJSON(&mb); err != nil {
		t.Fatal(err)
	}
	return res, tb.String(), mb.String()
}

// TestPrefetchGoldenDeterminism is the zoo's golden table: every policy on
// both planes, for a strided scan and a graph traversal, must verify
// byte-identical against the native oracle (Verify above) AND serialize
// byte-identical traces and metrics across two identical runs — advisory
// prefetch must not introduce a single nondeterministic event.
func TestPrefetchGoldenDeterminism(t *testing.T) {
	for name, w := range prefetchApps() {
		for _, policy := range linePolicies() {
			if policy != prefetch.Compiled {
				a, ta, ma := prefetchCell(t, "page", policy, w)
				b, tb, mb := prefetchCell(t, "page", policy, w)
				if a.Time != b.Time || ta != tb || ma != mb {
					t.Errorf("%s page/%s: nondeterministic across identical runs", name, policy)
				}
			}
			a, ta, ma := prefetchCell(t, "line", policy, w)
			b, tb, mb := prefetchCell(t, "line", policy, w)
			if a.Time != b.Time || ta != tb || ma != mb {
				t.Errorf("%s line/%s: nondeterministic across identical runs", name, policy)
			}
		}
	}
}

// TestPrefetchMetricsRegistered: the efficacy counters land in the metrics
// registry under their trace names on both planes.
func TestPrefetchMetricsRegistered(t *testing.T) {
	w := prefetchApps()["stridescan"]
	_, _, mPage := prefetchCell(t, "page", "readahead", w)
	for _, key := range []string{"swap.prefetch.useful", "swap.prefetch.useless", "swap.prefetch.dropped"} {
		if !bytes.Contains([]byte(mPage), []byte(key)) {
			t.Errorf("page metrics missing %q", key)
		}
	}
	_, _, mLine := prefetchCell(t, "line", "programmed", w)
	for _, key := range []string{"prefetch.issued", "prefetch.useful", "prefetch.useless", "prefetch.dropped"} {
		if !bytes.Contains([]byte(mLine), []byte(key)) {
			t.Errorf("line metrics missing %q", key)
		}
	}
}

// The programmed arm suppresses the gathers that make a chained target's
// lines resident, so it must not keep the plan's claim that the target
// compiles to native loads: every node's first touch would miss the claim.
// graph at a quarter of its footprint is the plan that makes that claim.
func TestProgrammedArmDropsChainedNativeMarks(t *testing.T) {
	w := graphtraverse.New(graphtraverse.DefaultConfig())
	tr := trace.New()
	opts := Options{Budget: w.FullMemoryBytes() / 4, Verify: true, Trace: tr}
	for _, policy := range []string{prefetch.Compiled, "programmed"} {
		before := tr.Registry().Counter("rt.native_fallback{section=ind-nodes}").Value()
		res, err := RunLinePolicy(w, opts, prefetch.Spec{Policy: policy})
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed {
			t.Fatalf("%s failed: %s", policy, res.FailReason)
		}
		if !res.PlanResult.Plan.Objects["nodes"].Native {
			t.Fatal("the accepted plan no longer compiles graph's nodes to native loads")
		}
		if n := tr.Registry().Counter("rt.native_fallback{section=ind-nodes}").Value() - before; n != 0 {
			t.Errorf("%s: %d native fallbacks on ind-nodes, want 0", policy, n)
		}
	}
}

// The programmed arm walks a tape of the training run's accesses, the
// indirect ones included, so at a quarter of graph's footprint it covers
// nearly all of the line plane's demand misses. The static walk of the IR's
// affine loops it replaced covered 0.06 of them.
func TestProgrammedArmCoversGraphMisses(t *testing.T) {
	w := graphtraverse.New(graphtraverse.DefaultConfig())
	res, err := RunLinePolicy(w, Options{Budget: w.FullMemoryBytes() / 4, Verify: true}, prefetch.Spec{Policy: "programmed"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed {
		t.Fatalf("run failed: %s", res.FailReason)
	}
	if cov := res.Prefetch.Coverage(res.DemandMisses); cov < 0.9 {
		t.Errorf("coverage %.2f of %d demand misses, want at least 0.9", cov, res.DemandMisses)
	}
}

// checkEfficacy pins the no-double-charge invariants: a prefetched unit is
// resolved at most once (useful when touched, useless when evicted), late
// only within useful, and every failed piece is dropped, never issued.
func checkEfficacy(t *testing.T, label string, pf prefetch.Efficacy) {
	t.Helper()
	if pf.Useful+pf.Useless > pf.Issued {
		t.Errorf("%s: useful %d + useless %d exceed issued %d — a prefetch was charged twice",
			label, pf.Useful, pf.Useless, pf.Issued)
	}
	if pf.Late > pf.Useful {
		t.Errorf("%s: late %d > useful %d", label, pf.Late, pf.Useful)
	}
	if pf.Issued < 0 || pf.Useful < 0 || pf.Useless < 0 || pf.Dropped < 0 {
		t.Errorf("%s: negative efficacy counter: %+v", label, pf)
	}
}

// TestPrefetchUnderFaults: advisory prefetch under an injected fault load
// must never abort the run — failed speculative pieces are dropped and
// counted while the demand path retries to byte-identical output. Covers
// the probabilistic NACK schedule and a hard mid-run partition window, for
// every policy on both planes.
func TestPrefetchUnderFaults(t *testing.T) {
	w := graphtraverse.New(graphtraverse.Config{Edges: 2048, Nodes: 512, Passes: 2, Seed: 7})
	budget := w.FullMemoryBytes() / 4

	// Fault-free baselines per plane: the partition window must land
	// mid-run, and the line plane finishes an order of magnitude before
	// the page plane. The compiled policy runs the program's own gathered
	// chains, and the programmed one walks a tape of every node access;
	// each finishes several times before the line plane's other advisory
	// policies, so each has a baseline of its own.
	t0 := map[string]sim.Duration{}
	for _, base := range []string{"page", "line", "line/" + prefetch.Compiled, "line/programmed"} {
		var res Result
		var err error
		switch base {
		case "page":
			res, err = RunPagePolicy(w, Options{Budget: budget}, prefetch.Spec{Policy: "none"})
		case "line":
			res, err = RunLinePolicy(w, Options{Budget: budget}, prefetch.Spec{Policy: "none"})
		default:
			res, err = RunLinePolicy(w, Options{Budget: budget}, prefetch.Spec{Policy: strings.TrimPrefix(base, "line/")})
		}
		if err != nil {
			t.Fatal(err)
		}
		t0[base] = res.Time
	}
	partition := func(plane, policy string) faults.Config {
		end, ok := t0[plane+"/"+policy]
		if !ok {
			end = t0[plane]
		}
		return faults.Config{
			Seed: 5,
			Schedule: []faults.Event{
				{At: sim.Time(end / 3), Kind: faults.PartitionStart},
				{At: sim.Time(end / 2), Kind: faults.PartitionEnd},
			},
		}
	}
	flaky, err := faults.Named("flaky", 3)
	if err != nil {
		t.Fatal(err)
	}
	schedules := map[string]func(plane, policy string) faults.Config{
		"flaky":     func(string, string) faults.Config { return flaky },
		"partition": partition,
	}

	for schedName, mkSched := range schedules {
		for _, policy := range linePolicies() {
			planes := []string{"line"}
			if policy != prefetch.Compiled {
				planes = append(planes, "page")
			}
			for _, plane := range planes {
				label := schedName + "/" + plane + "/" + policy
				fcCopy := mkSched(plane, policy)
				opts := Options{
					Budget:     budget,
					Verify:     true,
					Faults:     &fcCopy,
					Resilience: recoveryPolicy(t0[plane]),
				}
				spec := prefetch.Spec{Policy: policy}
				var res Result
				var err error
				if plane == "page" {
					res, err = RunPagePolicy(w, opts, spec)
				} else {
					res, err = RunLinePolicy(w, opts, spec)
				}
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if res.Failed {
					t.Fatalf("%s: run failed: %s", label, res.FailReason)
				}
				checkEfficacy(t, label, res.Prefetch)
				if res.Net.Retries == 0 && res.Net.Timeouts == 0 {
					t.Errorf("%s: schedule injected nothing", label)
				}
			}
		}
	}
}
