package planner

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"reflect"
	"strings"
	"testing"

	"mira/internal/apps/arraysum"
	"mira/internal/apps/dataframe"
	"mira/internal/apps/distagg"
	"mira/internal/apps/gpt2"
	"mira/internal/apps/graphtraverse"
	"mira/internal/apps/mcf"
	"mira/internal/apps/seqscan"
	"mira/internal/apps/stridescan"
	"mira/internal/cache"
	"mira/internal/cluster"
	"mira/internal/codegen"
	"mira/internal/farmem"
	"mira/internal/ir"
	"mira/internal/sim"
	"mira/internal/trace"
)

// benchSeed is benchmark/cells.go's appSeed at benchmark seed 1.
func benchSeed(app string) uint64 {
	return sim.SplitSeed(1, "app/"+app)&0x3fffffff | 1
}

// The benchmark's planned cells at fullSizes, seed 1 (benchmark/cells.go).
func benchMCF() Workload {
	return mcf.New(mcf.Config{Arcs: 2048, Nodes: 512, Iterations: 3, WalkLen: 64, Seed: benchSeed("mcf")})
}

func benchGraph() Workload {
	return graphtraverse.New(graphtraverse.Config{Edges: 8192, Nodes: 2048, Passes: 1, Seed: benchSeed("graph")})
}

func benchGPT2() Workload {
	cfg := gpt2.DefaultConfig()
	cfg.Layers, cfg.Seed = 4, benchSeed("gpt2")
	return gpt2.New(cfg)
}

func benchDataframe() Workload {
	return dataframe.New(dataframe.Config{Rows: 1 << 14, Queries: 1, Seed: benchSeed("dataframe")})
}

// distinctCandidates counts the candidates a forgetting ledger was asked for
// that differ by value — programs compared deeply, not by pointer;
// configurations by what the runtime builds of them (rt.Config.Geometry) and
// their carve-up byte total.
func distinctCandidates(l *ledger) int {
	var seen []ledgerRun
next:
	for _, r := range l.runs {
		for _, s := range seen {
			if s.carve == r.carve && reflect.DeepEqual(s.geom, r.geom) && reflect.DeepEqual(s.prog, r.prog) {
				continue next
			}
		}
		seen = append(seen, r)
	}
	return len(seen)
}

// TestEachCandidateOnce plans the benchmark's planned cells (fullSizes,
// seed 1) and counts sessions: a candidate the loop derives twice is executed
// once. The general statement, checked on every cell: sessions opened ==
// candidates requested that differ by value.
func TestEachCandidateOnce(t *testing.T) {
	cells := []struct {
		name      string
		w         Workload
		frac      float64
		requested int // sessions the planner opened before the ledger
		opened    int
	}{
		{"mcf@25", benchMCF(), 0.25, 20, 8},
		{"mcf@10", benchMCF(), 0.10, 20, 8},
		{"graph", benchGraph(), 0.25, 4, 3},
		{"seqscan", seqscan.New(seqscan.Config{N: 1 << 15, Seed: benchSeed("seqscan")}), 0.25, 4, 3},
		{"stridescan", stridescan.New(stridescan.Config{N: 1 << 14, Seed: benchSeed("stridescan")}), 0.25, 4, 3},
		{"arraysum", arraysum.New(arraysum.Config{N: 1 << 17, Seed: benchSeed("arraysum")}), 0.25, 4, 3},
		{"gpt2@35", benchGPT2(), 0.35, 12, 8},
	}
	for _, c := range cells {
		c := c
		t.Run(c.name, func(t *testing.T) {
			opts := Options{LocalBudget: int64(float64(c.w.FullMemoryBytes()) * c.frac)}
			res, err := Plan(c.w, opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Runs != c.opened || res.Runs+res.Reused != c.requested {
				t.Errorf("opened %d sessions for %d requests, want %d for %d",
					res.Runs, res.Runs+res.Reused, c.opened, c.requested)
			}
			_, off, err := planOn(c.w, opts, true)
			if err != nil {
				t.Fatal(err)
			}
			if off.reused != 0 {
				t.Errorf("forgetting ledger answered %d requests from its record", off.reused)
			}
			if len(off.runs) != res.Runs+res.Reused {
				t.Errorf("ledger on saw %d requests, ledger off %d", res.Runs+res.Reused, len(off.runs))
			}
			if d := distinctCandidates(off); d != res.Runs {
				t.Errorf("opened %d sessions for %d distinct candidates", res.Runs, d)
			}
		})
	}
}

// TestMirroredSamplesShareOneSession is the smallest case of the repeat the
// byte-exact key missed: two sampled sections splitting 4099 B. "arcs at 0.2,
// nodes the rest" is 819 + 3280 B and its mirror "nodes at 0.8, arcs the
// rest" is 820 + 3279 B — a byte apart, and 6 + 25 lines of 128 B both times.
// Every ratio has such a twin (sample i mirrors sample 7−i): both plan the
// same program, so the eight samples are four runs, and each mirror reads its
// overhead off the run its twin paid for.
func TestMirroredSamplesShareOneSession(t *testing.T) {
	w := mcf.New(mcf.Config{Arcs: 256, Nodes: 64, Iterations: 1, WalkLen: 8, Seed: 42})
	prog := w.Program()
	const avail = 4099
	opts := withDefaults(Options{LocalBudget: prog.LocalBytes() + avail})
	drafts := []*sectionDraft{
		{name: "arcs", structure: cache.SetAssoc, ways: 4, lineBytes: 128, members: []string{"arcs"}, interval: [2]int{0, 1}},
		{name: "nodes", structure: cache.FullAssoc, lineBytes: 128, members: []string{"nodes"}, interval: [2]int{0, 1}},
	}
	report, _, err := analyzeAll(prog)
	if err != nil {
		t.Fatal(err)
	}
	merged := scopeAccess(report, []string{"arcs", "nodes"})
	sample := func(forget bool) (*ledger, []int64) {
		l := newLedger(w)
		l.forget = forget
		build := func() (*codegen.Plan, *ir.Program, error) {
			plan := buildPlan(prog, merged, drafts, 4, opts.Techniques, opts.link())
			out, err := l.compile(prog, plan)
			return plan, out, err
		}
		if err := sizeBySampling(l, build, prog, drafts, drafts, avail, 0, opts); err != nil {
			t.Fatal(err)
		}
		return l, []int64{drafts[0].sizeBytes, drafts[1].sizeBytes}
	}
	on, sizes := sample(false)
	off, want := sample(true)
	if len(on.runs) != 4 || on.reused != 4 {
		t.Errorf("eight mirrored samples opened %d sessions and reused %d, want 4 and 4", len(on.runs), on.reused)
	}
	if len(off.runs) != 8 || distinctCandidates(off) != 4 {
		t.Fatalf("forgetting ledger: %d requests, %d distinct, want 8 and 4", len(off.runs), distinctCandidates(off))
	}
	for i := 0; i < 4; i++ {
		// The mirrors really are a byte apart, so the old key could not
		// pair them.
		a, b := off.runs[i].cfg, off.runs[7-i].cfg
		if a.Sections[0].Cache.SizeBytes+1 != b.Sections[0].Cache.SizeBytes || a.Sections[1].Cache.SizeBytes-1 != b.Sections[1].Cache.SizeBytes {
			t.Errorf("samples %d and %d are %d+%d B and %d+%d B, want one byte moved from the second section to the first", i, 7-i,
				a.Sections[0].Cache.SizeBytes, a.Sections[1].Cache.SizeBytes, b.Sections[0].Cache.SizeBytes, b.Sections[1].Cache.SizeBytes)
		}
		if !reflect.DeepEqual(off.runs[i].out, off.runs[7-i].out) {
			t.Errorf("mirrored sample %d ran for real and measured something else than its twin %d", 7-i, i)
		}
	}
	if !reflect.DeepEqual(sizes, want) {
		t.Errorf("the ILP chose %v from shared runs, %v from four runs", sizes, want)
	}
}

// ledgerApps are quick instances of the nine mira-run applications.
func ledgerApps() map[string]func() Workload {
	return map[string]func() Workload{
		"graph": func() Workload {
			return graphtraverse.New(graphtraverse.Config{Edges: 2048, Nodes: 2048, Passes: 1, Seed: 9})
		},
		"mcf": func() Workload {
			return mcf.New(mcf.Config{Arcs: 1024, Nodes: 256, Iterations: 4, WalkLen: 16, Seed: 42})
		},
		"dataframe": func() Workload { return dataframe.New(dataframe.Config{Rows: 2048, Queries: 1, Seed: 2014}) },
		"gpt2": func() Workload {
			return gpt2.New(gpt2.Config{Layers: 2, DModel: 32, DFF: 64, SeqLen: 16, Seed: 5})
		},
		"arraysum":   func() Workload { return arraysum.New(arraysum.Config{N: 8192, Seed: 1}) },
		"seqscan":    func() Workload { return seqscan.New(seqscan.Config{N: 4096, Seed: 1}) },
		"stridescan": func() Workload { return stridescan.New(stridescan.Config{N: 2048, Seed: 1}) },
		"distagg":    func() Workload { return distagg.New(distagg.Config{N: 1 << 12, Seed: 3}) },
		"distfilter": func() Workload { return distagg.New(distagg.Config{N: 1 << 12, Seed: 3, Mode: "filter"}) },
	}
}

// TestLedgerDifferentialOracle: answering a repeated candidate from the
// record changes nothing a caller can see. Every app under every racing
// phase plans to the same Result and writes the same planner trace with the
// ledger on as with every lookup forced to miss.
func TestLedgerDifferentialOracle(t *testing.T) {
	modes := map[string]func(o *Options){
		"default":  func(o *Options) {},
		"compress": func(o *Options) { o.Compress = "auto" },
		"hybrid":   func(o *Options) { o.Plane = "hybrid" },
		"offload": func(o *Options) {
			o.Offload = "auto"
			o.Cluster = &cluster.Options{Nodes: 4, Replicas: 2, Seed: 1, StripeBytes: 4096,
				NodeCfg: farmem.DefaultNodeConfig()}
		},
	}
	reusedAnywhere := false
	for app, mk := range ledgerApps() {
		for mode, set := range modes {
			app, mode, mk, set := app, mode, mk, set
			t.Run(app+"/"+mode, func(t *testing.T) {
				var res [2]*Result
				var trc [2]bytes.Buffer
				for i, forget := range []bool{false, true} {
					w := mk()
					opts := Options{LocalBudget: w.FullMemoryBytes() / 4, Trace: trace.New()}
					set(&opts)
					r, l, err := planOn(w, opts, forget)
					if err != nil {
						t.Fatal(err)
					}
					if err := opts.Trace.WriteTrace(&trc[i]); err != nil {
						t.Fatal(err)
					}
					res[i] = r
					reusedAnywhere = reusedAnywhere || l.reused > 0
				}
				on, off := res[0], res[1]
				for _, f := range []struct {
					name    string
					on, off interface{}
				}{
					{"Program", on.Program, off.Program},
					{"Config", on.Config, off.Config},
					{"Plan", on.Plan, off.Plan},
					{"BaselineTime", on.BaselineTime, off.BaselineTime},
					{"FinalTime", on.FinalTime, off.FinalTime},
					{"Iterations", on.Iterations, off.Iterations},
					{"Planes", on.Planes, off.Planes},
					{"Offloaded", on.Offloaded, off.Offloaded},
				} {
					if !reflect.DeepEqual(f.on, f.off) {
						t.Errorf("Result.%s differs with the ledger on:\n on  %+v\n off %+v", f.name, f.on, f.off)
					}
				}
				if !bytes.Equal(trc[0].Bytes(), trc[1].Bytes()) {
					t.Errorf("planner trace differs with the ledger on:\n on  %s\n off %s", trc[0].String(), trc[1].String())
				}
			})
		}
	}
	if !reusedAnywhere {
		t.Error("no cell reused a recorded run: the oracle compared the same path twice")
	}
}

// TestLedgerDoesNotOutliveItsPlan: nothing is remembered across calls. A
// compilation measured on other data gets that data's time, and planning the
// same workload again opens as many sessions as the first time.
func TestLedgerDoesNotOutliveItsPlan(t *testing.T) {
	cfg := dataframe.Config{Rows: 4096, Seed: 2014, FilterOnly: true, CreditRate: 0.02}
	w1 := dataframe.New(cfg)
	opts := Options{LocalBudget: w1.FullMemoryBytes() / 4, MaxIterations: 2}
	res, err := Plan(w1, opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed, cfg.CreditRate = 2015, 0.9
	got, err := Measure(res, dataframe.New(cfg))
	if err != nil {
		t.Fatal(err)
	}
	// What w2 takes, from a session nothing planned through.
	want := newLedger(dataframe.New(cfg)).time(res.Program, res.Config)
	if want.err != nil {
		t.Fatal(want.err)
	}
	if got != want.time {
		t.Errorf("Measure on new data = %v, a fresh run of it = %v", got, want.time)
	}
	if got == res.FinalTime {
		t.Errorf("Measure on new data returned the planning input's time %v", got)
	}

	again, err := Plan(w1, opts)
	if err != nil {
		t.Fatal(err)
	}
	if again.Runs != res.Runs || again.Reused != res.Reused {
		t.Errorf("second Plan opened %d sessions (reused %d), the first %d (reused %d)",
			again.Runs, again.Reused, res.Runs, res.Reused)
	}
}

// TestLedgerCollectorsAreFinal: a repeated candidate gets the first run's
// *profile.Collector back, so nothing in the planner may write to a collector
// after its run returned. Runs are deterministic: executing every recorded
// candidate afresh must reproduce the collector the ledger still holds at
// the end of planning.
func TestLedgerCollectorsAreFinal(t *testing.T) {
	for _, app := range []string{"mcf", "graph", "dataframe"} {
		mk := ledgerApps()[app]
		w := mk()
		opts := Options{LocalBudget: w.FullMemoryBytes() / 4, Compress: "auto"}
		_, l, err := planOn(w, opts, false)
		if err != nil {
			t.Fatal(err)
		}
		profiled := 0
		for i, r := range l.runs {
			if r.out.col == nil {
				continue
			}
			profiled++
			fresh := newLedger(mk()).time(r.prog, r.cfg)
			if !reflect.DeepEqual(fresh.col, r.out.col) {
				t.Errorf("%s: run %d's collector was written to after the run returned", app, i)
			}
		}
		if profiled == 0 {
			t.Errorf("%s: no profiled run recorded", app)
		}
	}
}

// TestLedgerIsTheOnlyTimedRun scans the package's non-test files: one
// function opens sessions and one compiles, both on the ledger. A second
// open→Run sequence is a run the ledger cannot answer; a second compile site
// is a program pointer it cannot recognise.
func TestLedgerIsTheOnlyTimedRun(t *testing.T) {
	fset, funcs := nonTestFuncs(t)
	want := map[string]string{"session.Open": "execute", "codegen.Apply": "compile"}
	found := map[string]int{}
	for _, fn := range funcs {
		ast.Inspect(fn, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			x, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			name := x.Name + "." + sel.Sel.Name
			home, watched := want[name]
			if !watched {
				return true
			}
			found[name]++
			if fn.Name.Name != home || fn.Recv == nil {
				t.Errorf("%s: %s called from %s — go through the ledger's %s",
					fset.Position(call.Pos()), name, fn.Name.Name, home)
			}
			return true
		})
	}
	for name := range want {
		if found[name] != 1 {
			t.Errorf("%d calls to %s in the package, want exactly 1", found[name], name)
		}
	}
}

// TestOneAcceptRule scans the package's non-test files: try is the one
// function that races a candidate. The verdict "rolled-back" is spelled there
// and nowhere else; a competing candidate is profiled only there; FinalTime
// is written only there, by plan's baseline, and by Adapt, which restamps
// the compilation it keeps with that compilation's time on the new input;
// and no function takes or returns a trace cursor (a sim.Time).
func TestOneAcceptRule(t *testing.T) {
	fset, funcs := nonTestFuncs(t)
	homes := map[string]map[string]bool{
		`"rolled-back"`: {"try": true},
		"profile":       {"try": true, "plan": true},
		"FinalTime":     {"try": true, "plan": true, "Adapt": true},
	}
	verdicts := 0
	for _, fn := range funcs {
		name := fn.Name.Name
		for _, fields := range []*ast.FieldList{fn.Type.Params, fn.Type.Results} {
			if fields == nil {
				continue
			}
			for _, f := range fields.List {
				if sel, ok := f.Type.(*ast.SelectorExpr); ok && fmt.Sprint(sel.X) == "sim" && sel.Sel.Name == "Time" {
					t.Errorf("%s: %s threads a sim.Time — the cursor belongs to the planning state",
						fset.Position(f.Pos()), name)
				}
			}
		}
		ast.Inspect(fn, func(n ast.Node) bool {
			var what string
			switch n := n.(type) {
			case *ast.BasicLit:
				if n.Value == `"rolled-back"` {
					what = n.Value
					verdicts++
				}
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "profile" {
					what = "profile"
				}
			case *ast.KeyValueExpr:
				if k, ok := n.Key.(*ast.Ident); ok && k.Name == "FinalTime" {
					what = "FinalTime"
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok && sel.Sel.Name == "FinalTime" {
						what = "FinalTime"
					}
				}
			}
			if what != "" && !homes[what][name] {
				t.Errorf("%s: %s in %s — candidates race through try", fset.Position(n.Pos()), what, name)
			}
			return true
		})
	}
	if verdicts != 1 {
		t.Errorf("%d rolled-back verdicts in the package, want exactly 1 (try's)", verdicts)
	}
}

// nonTestFuncs parses the package's non-test files and returns their
// function declarations.
func nonTestFuncs(t *testing.T) (*token.FileSet, []*ast.FuncDecl) {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var funcs []*ast.FuncDecl
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok {
					funcs = append(funcs, fn)
				}
			}
		}
	}
	return fset, funcs
}
