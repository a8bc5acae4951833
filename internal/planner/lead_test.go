package planner

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"mira/internal/analysis"
	"mira/internal/codegen"
	"mira/internal/ir"
	"mira/internal/netmodel"
)

// TestStreamLeadFitsQuarter checks the lead rule on the candidate each ledger
// app's structural step builds at whole-program scope from its baseline
// profile, at budgets of a quarter, half and all of its footprint, with
// batching on and off. Every sequential or strided stream leads by a whole
// number of lines, never nearer than the round trip max(2·dElems, le); an
// unbatched stream leads by exactly that round trip, rounded up to a line;
// the leads its section sets sum to at most a quarter of that section, and
// each such lead with its doorbell batch fills at most half of it; and the
// eviction lag is still the round trip's, not the lead's. Some stream's lead
// is set by its section, and on the scan apps every loop the round-trip plan
// strip-mines into a tile nest is a tile nest under the lead. The candidate's
// program is its plan's, and a forgetting ledger builds the same candidate;
// some candidate's plan is rebuilt once its sections reach their final size.
func TestStreamLeadFitsQuarter(t *testing.T) {
	scans := map[string]bool{"seqscan": true, "stridescan": true, "arraysum": true}
	apps := ledgerApps()
	names := make([]string, 0, len(apps))
	for app := range apps {
		names = append(names, app)
	}
	sort.Strings(names)
	ran, quartered, replanned := 0, 0, 0
	for _, app := range names {
		app := app
		t.Run(app, func(t *testing.T) {
			ran++
			for _, noBatching := range []bool{false, true} {
				feasible := 0
				for _, div := range []int64{4, 2, 1} {
					w := apps[app]()
					tech := TechniqueMask{NoBatching: noBatching}
					opts := withDefaults(Options{LocalBudget: w.FullMemoryBytes() / div, Techniques: tech})
					if q, re, ok := checkStreamLeads(t, w, opts, scans[app]); ok {
						feasible++
						quartered += q
						if re {
							replanned++
						}
					}
				}
				if feasible == 0 {
					t.Fatalf("batching off %v: no feasible whole-program candidate at any budget", noBatching)
				}
			}
		})
	}
	if ran == len(names) && quartered == 0 {
		t.Error("no stream's lead was sized from its section")
	}
	if ran == len(names) && replanned == 0 {
		t.Error("no candidate's plan was rebuilt at its final section sizes")
	}
}

// checkStreamLeads runs TestStreamLeadFitsQuarter's checks on w's
// whole-program candidate under opts and returns how many streams the
// section, not the round trip, set the lead of, and whether the plan was
// rebuilt at the final section sizes. It reports false when the budget
// cannot host the candidate's sections, which only rejects the candidate
// (iterate rolls it back); a scan app must always be feasible.
func checkStreamLeads(t *testing.T, w Workload, opts Options, scan bool) (int, bool, bool) {
	t.Helper()
	at := fmt.Sprintf("budget %d, batching off %v", opts.LocalBudget, opts.Techniques.NoBatching)
	l := newLedger(w, opts)
	prog := w.Program()
	swapCfg, err := swapOnlyConfig(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	base := l.profile(prog, swapCfg)
	if base.err != nil {
		t.Fatal(base.err)
	}
	report, objs, err := analyzeAll(prog)
	if err != nil {
		t.Fatal(err)
	}
	cand, err := buildConfig(l, prog, report, objs, base.col, opts)
	var ce compileError
	if err != nil && (scan || errors.As(err, &ce)) {
		t.Fatal(err)
	}
	if err != nil {
		t.Logf("%s: no feasible candidate: %v", at, err)
		return 0, false, false
	}
	// The first build is the plan read from the analytic sizes; a second
	// one means the final sizes changed it.
	replanned := len(l.builds) > 1
	if want, err := codegen.Apply(prog, cand.plan); err != nil || ir.Print(want) != ir.Print(cand.prog) {
		t.Errorf("%s: the candidate's program is not its plan's (replanned %v, err %v)", at, replanned, err)
	}
	off := newLedger(w, opts)
	off.forget = true
	if c, err := buildConfig(off, prog, report, objs, base.col, opts); err != nil ||
		!reflect.DeepEqual(c.plan, cand.plan) || !reflect.DeepEqual(c.cfg, cand.cfg) || ir.Print(c.prog) != ir.Print(cand.prog) {
		t.Errorf("%s: a forgetting ledger builds another candidate (replanned %v, err %v)", at, replanned, err)
	}
	dElems := rttElems(prog, scopeAccess(report, objs), base.col, opts.Net)

	// rttPlan is the candidate with every stream led by the round trip.
	rttPlan := *cand.plan
	rttPlan.Objects = map[string]*codegen.ObjectPlan{}
	streams, quartered := 0, 0
	// leads sums, per section, the lines of the leads the section set.
	leads := map[int]int64{}
	for name, op := range cand.plan.Objects {
		rttPlan.Objects[name] = op
		if op.PrefetchDistance == 0 || (op.Pattern != analysis.PatternSequential && op.Pattern != analysis.PatternStrided) {
			continue
		}
		streams++
		le := op.LineElems
		rtt := maxI64(2*dElems, le)
		rttLines := (rtt + le - 1) / le
		si := cand.cfg.Placements[name].Section
		sec := cand.cfg.Sections[si].Cache
		lines := sec.SizeBytes / int64(sec.LineBytes)
		switch lead := op.PrefetchDistance; {
		case lead%le != 0:
			t.Errorf("%s, %s: lead %d is not a whole number of %d-element lines", at, name, lead, le)
		case lead < rtt:
			t.Errorf("%s, %s: lead %d is nearer than the round trip's %d", at, name, lead, rtt)
		case op.BatchLines < 2 && lead != rttLines*le:
			t.Errorf("%s, %s: unbatched lead %d, want the round trip's %d", at, name, lead, rttLines*le)
		case lead > rttLines*le:
			quartered++
			leads[si] += lead / le
			if lead/le+op.BatchLines > lines/2 {
				t.Errorf("%s, %s: %d lines of lead and %d of batch fill more than half of section %s's %d lines",
					at, name, lead/le, op.BatchLines, sec.Name, lines)
			}
		}
		if op.EvictLag != 0 && op.EvictLag != maxI64(2*rtt, 2*le) {
			t.Errorf("%s, %s: eviction lag %d, want the round trip's %d", at, name, op.EvictLag, maxI64(2*rtt, 2*le))
		}
		o := *op
		o.PrefetchDistance = rtt
		rttPlan.Objects[name] = &o
	}
	for si, n := range leads {
		if sec := cand.cfg.Sections[si].Cache; n > sec.SizeBytes/int64(sec.LineBytes)/4 {
			t.Errorf("%s: section %s sets %d lines of lead, more than a quarter of its %d lines",
				at, sec.Name, n, sec.SizeBytes/int64(sec.LineBytes))
		}
	}
	t.Logf("%s: %d streams, %d led by the section, replanned %v", at, streams, quartered, replanned)
	if !scan {
		return quartered, replanned, true
	}
	if streams == 0 {
		t.Fatalf("%s: no sequential or strided stream planned", at)
	}
	rttProg, err := l.compile(prog, &rttPlan)
	if err != nil {
		t.Fatal(err)
	}
	was, is := tileNests(rttProg), tileNests(cand.prog)
	for loop := range was {
		if !is[loop] {
			t.Errorf("%s: loop %s is a tile nest under the round-trip lead and flat under the section lead", at, loop)
		}
	}
	t.Logf("%s: %d tile nests under the round-trip lead, %d under the section lead", at, len(was), len(is))
	return quartered, replanned, true
}

// tileNests names every loop of prog that compiled to a tile nest, as
// "function#k" with k the loop's pre-order position in its function.
func tileNests(prog *ir.Program) map[string]bool {
	out := map[string]bool{}
	for _, fn := range prog.Funcs {
		k := 0
		var walk func(body []ir.Stmt)
		walk = func(body []ir.Stmt) {
			for _, s := range body {
				if flat, _, ok := ir.MatchTileNest(s); ok {
					out[fmt.Sprintf("%s#%d", fn.Name, k)] = true
					k++
					walk(flat.Body)
					continue
				}
				switch st := s.(type) {
				case *ir.Loop:
					k++
					walk(st.Body)
				case *ir.If:
					walk(st.Then)
					walk(st.Else)
				}
			}
		}
		walk(fn.Body)
	}
	return out
}

// TestStreamLeadRule pins buildPlan's lead on a 24-byte-element stream,
// whose 2040-byte line holds 85 elements, so the round trip max(2·64, 85) =
// 128 elements is not a whole number of lines. Two such streams in one
// section split its quarter. A reused section has no size before sampling
// sizes it: the first plan leads by the round trip, unbatched; the final
// plan reads lead and batch from the sampled size.
func TestStreamLeadRule(t *testing.T) {
	b := ir.NewBuilder("p")
	b.Object("recs", 24, 4096, ir.F("f", 0, 8))
	b.Object("more", 24, 4096, ir.F("f", 0, 8))
	b.Func("main")
	prog := b.MustProgram()
	m := mkMerged(analysis.PatternSequential, 24, []string{"f"}, 8)
	m.LastLoopSequential, m.Scans = true, 1
	merged := map[string]*analysis.ObjectAccess{"recs": m, "more": m}
	const le, rttLead, lag = 85, 2 * 85, 2 * 128
	net := netmodel.DefaultConfig()
	noBatching := TechniqueMask{NoBatching: true}
	for _, c := range []struct {
		name   string
		lines  int64
		reused bool
		shared bool
		tech   TechniqueMask
		lead   int64
		batch  bool
	}{
		{name: "quarter", lines: 64, tech: TechniqueMask{}, lead: 16 * le, batch: true},
		{name: "quarter of a small section", lines: 8, tech: TechniqueMask{}, lead: rttLead, batch: true},
		{name: "shared quarter", lines: 64, shared: true, tech: TechniqueMask{}, lead: 8 * le, batch: true},
		{name: "unbatched", lines: 64, tech: noBatching, lead: rttLead},
		{name: "reused before sampling", lines: 0, reused: true, tech: TechniqueMask{}, lead: rttLead},
		{name: "reused and sized", lines: 64, reused: true, tech: TechniqueMask{}, lead: 16 * le, batch: true},
	} {
		members := []string{"recs"}
		if c.shared {
			members = append(members, "more")
		}
		d := &sectionDraft{name: "seq2040", lineBytes: 2040, sizeBytes: c.lines * 2040, seqLike: true, reused: c.reused, members: members}
		op := buildPlan(prog, merged, []*sectionDraft{d}, 64, c.tech, net).Objects["recs"]
		if op.LineElems != le || op.PrefetchDistance != c.lead || op.EvictLag != lag || (op.BatchLines >= 2) != c.batch {
			t.Errorf("%s: line %d, lead %d, lag %d, batch %d; want line %d, lead %d, lag %d, batched %v",
				c.name, op.LineElems, op.PrefetchDistance, op.EvictLag, op.BatchLines, le, c.lead, lag, c.batch)
		}
	}
}
