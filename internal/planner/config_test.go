package planner

import (
	"mira/internal/netmodel"
	"testing"

	"mira/internal/analysis"
	"mira/internal/cache"
	"mira/internal/ir"
	"mira/internal/profile"
)

func mkMerged(pattern analysis.Pattern, elemBytes int, fields []string, accessed int) *analysis.ObjectAccess {
	return &analysis.ObjectAccess{
		Pattern:       pattern,
		ElemBytes:     elemBytes,
		AccessedBytes: accessed,
		Fields:        fields,
		Reads:         1,
	}
}

func twoObjProgram() *ir.Program {
	b := ir.NewBuilder("p")
	b.Object("seqA", 16, 128, ir.F("f", 0, 8))
	b.Object("seqB", 16, 128, ir.F("f", 0, 8))
	b.Object("ind", 128, 64, ir.F("c", 0, 8), ir.F("e", 64, 8))
	b.Object("wide", 4096, 64, ir.F("c", 0, 8), ir.F("d", 2048, 8))
	b.IntArray("rnd", 64)
	b.Func("main")
	return b.MustProgram()
}

func TestGroupSectionsByPattern(t *testing.T) {
	p := twoObjProgram()
	merged := map[string]*analysis.ObjectAccess{
		"seqA": mkMerged(analysis.PatternSequential, 16, []string{"f"}, 8),
		"seqB": mkMerged(analysis.PatternSequential, 16, []string{"f"}, 8),
		"ind":  mkMerged(analysis.PatternIndirect, 128, []string{"c"}, 8),
		"rnd":  mkMerged(analysis.PatternRandom, 8, []string{""}, 8),
	}
	drafts := groupSections(p, merged, TechniqueMask{}, netmodel.DefaultConfig())
	// Two sequential objects share one section (§4.1 "multiple objects
	// can be in one section if their access patterns are similar");
	// indirect and random objects get their own.
	if len(drafts) != 3 {
		t.Fatalf("drafts = %d, want 3", len(drafts))
	}
	var seq, ind, rnd *sectionDraft
	for _, d := range drafts {
		switch {
		case d.seqLike:
			seq = d
		case d.structure == cache.SetAssoc:
			ind = d
		case d.structure == cache.FullAssoc:
			rnd = d
		}
	}
	if seq == nil || len(seq.members) != 2 {
		t.Fatalf("sequential section %+v", seq)
	}
	if seq.structure != cache.Direct {
		t.Fatalf("sequential section structure %v", seq.structure)
	}
	if ind == nil || ind.members[0] != "ind" {
		t.Fatalf("indirect section %+v", ind)
	}
	if rnd == nil || rnd.members[0] != "rnd" {
		t.Fatalf("random section %+v", rnd)
	}
}

func TestSelectiveTransmissionChosen(t *testing.T) {
	p := twoObjProgram()
	// wide: 4 KB element, two 8 B fields 2 KB apart. No slot narrower than
	// the element holds both, so the line stays the whole element, which
	// needs two network chunks one-sided while the two-sided gather moves
	// 16 bytes: the cost model picks two-sided selective transmission.
	merged := map[string]*analysis.ObjectAccess{
		"wide": mkMerged(analysis.PatternIndirect, 4096, []string{"c", "d"}, 16),
	}
	drafts := groupSections(p, merged, TechniqueMask{}, netmodel.DefaultConfig())
	if len(drafts) != 1 || !drafts[0].twoSided || len(drafts[0].selFields) != 2 || drafts[0].lineBytes != 4096 {
		t.Fatalf("selective not chosen: %+v", drafts[0])
	}
	// One 8 B field: an 8 B slot holds it, so the line is that span, one
	// element apart, and only it travels — one-sided.
	merged["wide"] = mkMerged(analysis.PatternIndirect, 4096, []string{"c"}, 8)
	drafts = groupSections(p, merged, TechniqueMask{}, netmodel.DefaultConfig())
	if d := drafts[0]; d.twoSided || d.lineBytes != 8 || d.stride != 4096 {
		t.Fatalf("the 8 B field has no span line: %+v", d)
	}
	// Masked off: neither the span line nor the two-sided path.
	for _, fields := range [][]string{{"c", "d"}, {"c"}} {
		merged["wide"] = mkMerged(analysis.PatternIndirect, 4096, fields, 8*len(fields))
		drafts = groupSections(p, merged, TechniqueMask{NoSelective: true}, netmodel.DefaultConfig())
		if d := drafts[0]; d.twoSided || d.stride != 0 || d.lineBytes != 4096 {
			t.Fatalf("NoSelective mask ignored for %v: %+v", fields, d)
		}
	}
	// Whole-element access: no selective benefit.
	merged["wide"] = mkMerged(analysis.PatternIndirect, 4096, []string{""}, 4096)
	drafts = groupSections(p, merged, TechniqueMask{}, netmodel.DefaultConfig())
	if drafts[0].twoSided {
		t.Fatal("selective chosen despite whole-element access")
	}
}

func TestSelectiveRejectedWhenLineIsCheap(t *testing.T) {
	p := twoObjProgram()
	// ind: 128 B element, two 8 B fields 64 B apart, which no slot
	// narrower than the element holds. The coverage test passes (16*2 <=
	// 128) but pulling the 128 B line one-sided beats the two-sided
	// gather, so the cost model rejects selective.
	merged := map[string]*analysis.ObjectAccess{
		"ind": mkMerged(analysis.PatternIndirect, 128, []string{"c", "e"}, 16),
	}
	drafts := groupSections(p, merged, TechniqueMask{}, netmodel.DefaultConfig())
	if drafts[0].twoSided || drafts[0].lineBytes != 128 {
		t.Fatalf("selective chosen where the full line is cheaper: %+v", drafts[0])
	}
}

func TestForceStructureMask(t *testing.T) {
	p := twoObjProgram()
	merged := map[string]*analysis.ObjectAccess{
		"seqA": mkMerged(analysis.PatternSequential, 16, []string{"f"}, 8),
	}
	drafts := groupSections(p, merged, TechniqueMask{ForceFullAssoc: true}, netmodel.DefaultConfig())
	if drafts[0].structure != cache.FullAssoc {
		t.Fatalf("structure %v, want forced full-assoc", drafts[0].structure)
	}
}

func TestNormalizeSizesFitsBudget(t *testing.T) {
	drafts := []*sectionDraft{
		{name: "a", lineBytes: 64, sizeBytes: 1000},
		{name: "b", lineBytes: 64, sizeBytes: 3000},
	}
	normalizeSizes(drafts, 2000)
	var total int64
	for _, d := range drafts {
		total += d.sizeBytes
		if d.sizeBytes < 64 {
			t.Fatalf("section %s below one line", d.name)
		}
	}
	if total > 2000 {
		t.Fatalf("normalized total %d exceeds 2000", total)
	}
	// Proportionality: b stays larger than a.
	if drafts[1].sizeBytes <= drafts[0].sizeBytes {
		t.Fatal("proportionality lost")
	}
}

func TestSeqLineBytes(t *testing.T) {
	if got := seqLineBytes(16); got != 2048 {
		t.Fatalf("seqLineBytes(16) = %d, want 2048", got)
	}
	if got := seqLineBytes(24); got%24 != 0 || got > 2048 {
		t.Fatalf("seqLineBytes(24) = %d, want multiple of 24 <= 2048", got)
	}
	if got := seqLineBytes(4096); got != 4096 {
		t.Fatalf("seqLineBytes(4096) = %d", got)
	}
}

// TestSpanLineBytes pins the span rule: the smallest power of two, at least
// 8 B, that divides the element and whose aligned slot holds every accessed
// field; none (0, the whole-element line) when that is the element itself.
func TestSpanLineBytes(t *testing.T) {
	b := ir.NewBuilder("span")
	b.Object("graphnode", 128, 4, ir.F("count", 0, 8))
	b.Object("mcfnode", 64, 4, ir.F("pot", 0, 8), ir.F("parent", 8, 8))
	b.Object("scalar", 8, 4)
	b.Object("straddle", 64, 4, ir.F("a", 4, 8), ir.F("b", 40, 8))
	b.Object("odd", 24, 4, ir.F("x", 0, 8), ir.F("y", 8, 8), ir.F("z", 16, 8))
	b.Object("high", 128, 4, ir.F("tail", 96, 16))
	b.Func("main")
	p := b.MustProgram()
	for _, c := range []struct {
		name, obj string
		fields    []string
		want      int
	}{
		{"graph's count", "graphnode", []string{"count"}, 8},
		{"mcf's pot and parent", "mcfnode", []string{"parent", "pot"}, 16},
		{"mcf's pot alone", "mcfnode", []string{"pot"}, 8},
		{"whole element, by name", "graphnode", []string{""}, 0},
		{"whole scalar element", "scalar", []string{""}, 0},
		{"a span straddling 8 B slots", "straddle", []string{"a"}, 16},
		{"fields straddling every narrower slot", "straddle", []string{"a", "b"}, 0},
		{"16 B does not divide a 24 B element", "odd", []string{"x", "y"}, 0},
		{"8 B divides a 24 B element", "odd", []string{"y"}, 8},
		{"a span away from the element's start", "high", []string{"tail"}, 16},
		{"an unknown field", "graphnode", []string{"nope"}, 0},
	} {
		o, _ := p.Object(c.obj)
		if got := spanLineBytes(o, c.fields); got != c.want {
			t.Errorf("%s: spanLineBytes(%s, %v) = %d, want %d", c.name, c.obj, c.fields, got, c.want)
		}
	}
}

func TestRandLineBytes(t *testing.T) {
	if got := randLineBytes(8); got != 64 {
		t.Fatalf("randLineBytes(8) = %d, want 64", got)
	}
	if got := randLineBytes(128); got != 128 {
		t.Fatalf("randLineBytes(128) = %d", got)
	}
	if got := randLineBytes(100); got != 128 {
		t.Fatalf("randLineBytes(100) = %d, want 128", got)
	}
}

func TestPerIterEstimateClamps(t *testing.T) {
	p := twoObjProgram()
	r, _ := analysis.Analyze(p, nil, nil)
	col := newEmptyCollector()
	per := perIterEstimate(p, scopeAccess(r, []string{"seqA", "seqB", "ind", "wide", "rnd"}), col)
	if per < 5 || per > 10_000_000 {
		t.Fatalf("per-iteration estimate %v outside clamps", per)
	}
}

// newEmptyCollector builds a collector with no recorded events.
func newEmptyCollector() *profile.Collector { return profile.NewCollector() }

// Property: the cost-aware selective decision is monotone in the line
// size — once the line is large enough that selective wins, every larger
// line also prefers selective (for fixed accessed bytes).
func TestSelectiveDecisionMonotoneInLineSize(t *testing.T) {
	net := netmodel.DefaultConfig()
	prev := false
	for line := 64; line <= 1<<16; line *= 2 {
		sel := net.TwoSidedCost(8) < net.OneSidedCost(line)
		if prev && !sel {
			t.Fatalf("selective flipped off at line %d", line)
		}
		prev = sel
	}
	if !prev {
		t.Fatal("selective never preferred even at 64KB lines")
	}
	if net.TwoSidedCost(8) < net.OneSidedCost(128) {
		t.Fatal("selective preferred for a 128B line (two-sided RTT should dominate)")
	}
}
