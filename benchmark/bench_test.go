package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"mira/internal/exec"
	"mira/internal/farmem"
	"mira/internal/planner"
	"mira/internal/rt"
	"mira/internal/sim"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestDeclarationsMatchContract keeps spec.go and BENCHMARK.json in step and
// checks the interaction table only refers to things that exist.
func TestDeclarationsMatchContract(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}

	if len(bj.Workloads) != len(workloadOrder) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(bj.Workloads), len(workloadOrder))
	}
	workloads := map[string]bool{}
	for i, w := range bj.Workloads {
		if w.Name != workloadOrder[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloadOrder[i])
		}
		if w.Why != workloadWhy[w.Name] {
			t.Errorf("workload %s: BENCHMARK.json and workloadWhy disagree on why it exists", w.Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters (%d)", w.Name, len(w.Why))
		}
		if len(workloadCells[w.Name]) == 0 {
			t.Errorf("workload %s has no cells", w.Name)
		}
		workloads[w.Name] = true
	}

	seen := map[string]bool{}
	checkName := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is not a contract name", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for name := range workloads {
		checkName("workload", name)
	}

	endToEnd := map[string]bool{}
	if len(bj.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, spec.go %d", len(bj.EndToEnd), len(endToEndMetrics))
	}
	for i, d := range endToEndMetrics {
		checkName("end-to-end metric", d.Name)
		endToEnd[d.Name] = true
		j := bj.EndToEnd[i]
		if j.Name != d.Name || j.Unit != d.Unit || j.Better != d.Better || j.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, spec.go %+v", i, j, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if !endToEnd["setup_s"] {
		t.Error("setup_s must be an end-to-end metric")
	}

	if len(bj.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, spec.go %d", len(bj.PerLayer), len(perLayerMetrics))
	}
	for i, d := range perLayerMetrics {
		checkName("per-layer metric", d.Name)
		j := bj.PerLayer[i]
		if j.Name != d.Name || j.Unit != d.Unit || j.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, spec.go %+v", i, j, d)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
		if len(d.Moves) == 0 || len(d.On) == 0 {
			t.Errorf("%s: names no end-to-end metric or no workload it should move", d.Name)
		}
		for _, m := range d.Moves {
			if !endToEnd[m] {
				t.Errorf("%s: moves %q, which is not an end-to-end metric", d.Name, m)
			}
		}
		for _, w := range d.On {
			if !workloads[strings.TrimPrefix(w, "!")] {
				t.Errorf("%s: on %q, which is not a workload", d.Name, w)
			}
		}
	}
}

// driveSmall plans a small program once and returns a function that runs the
// accepted plan against a backend derived from the bound runtime.
func driveSmall(t *testing.T) func(wrap func(*rt.Runtime) exec.Backend) (sim.Duration, map[string][]byte) {
	t.Helper()
	w, err := buildProgram("seqscan", smokeSizes, 7)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := planner.Plan(w, planner.Options{LocalBudget: w.FullMemoryBytes() / 4})
	if err != nil {
		t.Fatal(err)
	}
	return func(wrap func(*rt.Runtime) exec.Backend) (sim.Duration, map[string][]byte) {
		r, err := rt.New(plan.Config, farmem.NewNode(farmem.DefaultNodeConfig()))
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Bind(plan.Program); err != nil {
			t.Fatal(err)
		}
		if err := w.Init(r); err != nil {
			t.Fatal(err)
		}
		ex, err := exec.New(plan.Program, wrap(r), exec.Options{Params: w.Params()})
		if err != nil {
			t.Fatal(err)
		}
		clk := sim.NewClock(0)
		if _, err := ex.Run(clk); err != nil {
			t.Fatal(err)
		}
		if err := r.FlushAll(clk); err != nil {
			t.Fatal(err)
		}
		dumps := map[string][]byte{}
		for _, o := range plan.Program.Objects {
			if o.Local {
				continue
			}
			d, err := r.DumpObject(o.Name)
			if err != nil {
				t.Fatal(err)
			}
			dumps[o.Name] = d
		}
		return clk.Now().Sub(0), dumps
	}
}

// TestDecoratorsAreTransparent runs one accepted plan bare and under both
// decorators: same simulated time, byte-identical far memory, every backend
// call and far-node call counted.
func TestDecoratorsAreTransparent(t *testing.T) {
	drive := driveSmall(t)
	bareTime, bareDumps := drive(func(r *rt.Runtime) exec.Backend { return r })
	var tap *execTap
	var far *farFolds
	tapTime, tapDumps := drive(func(r *rt.Runtime) exec.Backend {
		be, tp := tapExec(r)
		tap, far = tp, tapFar(r, &tp.cur)
		return be
	})
	if bareTime != tapTime {
		t.Errorf("simulated time: bare %v, decorated %v", bareTime, tapTime)
	}
	for name, d := range bareDumps {
		if !bytes.Equal(d, tapDumps[name]) {
			t.Errorf("object %q differs under the decorators", name)
		}
	}
	if n := tap.ops[opAccess].Count; n == 0 {
		t.Error("the exec decorator saw no accesses")
	}
	all := far.byKind(0, numExecOps+1)
	if n := sumFolds(all[:]).Count; n == 0 {
		t.Error("the far-node decorator saw no calls")
	}
}

// TestDecoratorForwardsCapabilities pins that a decorated runtime still
// offers the interpreter its optional capabilities, and that a decorated
// backend without them does not start claiming them.
func TestDecoratorForwardsCapabilities(t *testing.T) {
	r, err := rt.New(rt.Config{LocalBudget: 1 << 20, SwapPool: 1 << 19}, farmem.NewNode(farmem.DefaultNodeConfig()))
	if err != nil {
		t.Fatal(err)
	}
	be, _ := tapExec(r)
	if _, ok := be.(exec.RemoteEnv); !ok {
		t.Error("decorated runtime lost exec.RemoteEnv")
	}
	caps, ok := be.(rtCaps)
	if !ok {
		t.Fatal("decorated runtime lost the scatter or miss-count capability")
	}
	if caps.ScatterEngine() != r.ScatterEngine() || caps.MissCount() != r.MissCount() || caps.CPUSlowdown() != r.CPUSlowdown() {
		t.Error("capabilities are not forwarded to the wrapped runtime")
	}

	plain, _ := tapExec(nopExec{})
	if _, ok := plain.(exec.RemoteEnv); ok {
		t.Error("a decorated backend without RemoteEnv claims it")
	}
	if _, ok := plain.(rtCaps); ok {
		t.Error("a decorated backend without capabilities claims them")
	}
}

// metricLines counts "metric <name> " lines of a run's output.
func metricLines(out string) map[string]int {
	got := map[string]int{}
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) >= 2 && f[0] == "metric" {
			got[f[1]]++
		}
	}
	return got
}

// TestSmokeWorkloads runs every workload at its smoke size, untraced and
// traced: every operation verifies, and every declared metric is printed
// exactly once.
func TestSmokeWorkloads(t *testing.T) {
	for _, name := range workloadOrder {
		b, err := newBench(name, 1, smokeSizes)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		rep, err := b.endToEnd(&out, time.Second, true)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !rep.Correct || rep.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", name, rep.Correct, rep.Attempted, rep.Failed)
		}
		got := metricLines(out.String())
		for _, d := range endToEndMetrics {
			if got[d.Name] != 1 {
				t.Errorf("%s: end-to-end metric %s printed %d times", name, d.Name, got[d.Name])
			}
			if v := rep.Metrics[d.Name]; v.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %g, must never be 0", name, d.Name, v.Value)
			}
		}

		out.Reset()
		rep, err = b.tracedPass(&out, time.Second, true)
		if err != nil {
			t.Fatalf("%s traced: %v", name, err)
		}
		if !rep.Correct {
			t.Errorf("%s traced: %d of %d operations failed", name, rep.Failed, rep.Attempted)
		}
		got = metricLines(out.String())
		for _, d := range perLayerMetrics {
			if got[d.Name] != 1 {
				t.Errorf("%s: per-layer metric %s printed %d times", name, d.Name, got[d.Name])
			}
		}
		if len(got) != len(perLayerMetrics) {
			t.Errorf("%s traced: %d metrics printed, %d declared", name, len(got), len(perLayerMetrics))
		}
	}
}

// TestCompareVerdicts pins the four verdicts of -compare.
func TestCompareVerdicts(t *testing.T) {
	d := metricDecl{Name: "run_wall_s", Better: "lower", Bound: 0.10}
	tight := func(m float64) series { return series{vals: []float64{m * 0.99, m, m, m * 1.01}} }
	noisy := func(m float64) series { return series{vals: []float64{m * 0.7, m * 0.8, m * 1.2, m * 1.3}} }
	for _, tc := range []struct {
		before, after series
		want          string
	}{
		{tight(1), tight(1.02), "same"},
		{tight(1), tight(1.3), "worse"},
		{tight(1), tight(0.7), "better"},
		{tight(1), noisy(0.7), "unresolved"},
	} {
		if got, _ := verdict(d, tc.before, tc.after); got != tc.want {
			t.Errorf("verdict(%v → %v) = %s, want %s", tc.before.vals, tc.after.vals, got, tc.want)
		}
	}
}
