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
	b.Object("ind", 128, 64, ir.F("c", 0, 8))
	b.Object("wide", 4096, 64, ir.F("c", 0, 8))
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
	// wide: 4 KB element, 8 B accessed => the one-sided line needs two
	// network chunks while the two-sided gather moves 8 bytes, so the
	// cost model picks selective transmission.
	merged := map[string]*analysis.ObjectAccess{
		"wide": mkMerged(analysis.PatternIndirect, 4096, []string{"c"}, 8),
	}
	drafts := groupSections(p, merged, TechniqueMask{}, netmodel.DefaultConfig())
	if len(drafts) != 1 || !drafts[0].twoSided || len(drafts[0].selFields) != 1 {
		t.Fatalf("selective not chosen: %+v", drafts[0])
	}
	// Masked off.
	drafts = groupSections(p, merged, TechniqueMask{NoSelective: true}, netmodel.DefaultConfig())
	if drafts[0].twoSided {
		t.Fatal("NoSelective mask ignored")
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
	// ind: 128 B element, 8 B accessed. The coverage test passes (8*2 <=
	// 128) but pulling the 128 B line one-sided (~3.3 us) beats the
	// two-sided gather (~4.2 us), so the cost model rejects selective.
	merged := map[string]*analysis.ObjectAccess{
		"ind": mkMerged(analysis.PatternIndirect, 128, []string{"c"}, 8),
	}
	drafts := groupSections(p, merged, TechniqueMask{}, netmodel.DefaultConfig())
	if drafts[0].twoSided {
		t.Fatal("selective chosen where the full line is cheaper")
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
