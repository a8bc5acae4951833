package planner

import (
	"fmt"
	"sort"

	"mira/internal/analysis"
	"mira/internal/cache"
	"mira/internal/cluster"
	"mira/internal/codegen"
	"mira/internal/ir"
	"mira/internal/netmodel"
	"mira/internal/profile"
	"mira/internal/rt"
	"mira/internal/sim"
	"mira/internal/solver"
)

// perIterEstimate derives the profiled per-iteration time the prefetch
// distance computation needs: the entry function's non-runtime time divided
// by the largest trip count among the scope's objects.
func perIterEstimate(prog *ir.Program, merged map[string]*analysis.ObjectAccess, col *profile.Collector) sim.Duration {
	var trips int64 = 1
	for _, a := range merged {
		if a.TripCount > trips {
			trips = a.TripCount
		}
	}
	var nonRT sim.Duration = 50 * sim.Nanosecond
	if rec := col.Func(prog.Entry); rec != nil && rec.Total > rec.Runtime {
		nonRT = rec.Total - rec.Runtime
	}
	per := nonRT / sim.Duration(trips)
	if per < 5*sim.Nanosecond {
		per = 5 * sim.Nanosecond
	}
	if per > 10*sim.Microsecond {
		per = 10 * sim.Microsecond
	}
	return per
}

// rttElems is the round trip in elements (§4.5: "one network round trip
// earlier than actual access"): a 2 KB line's RTT over the profiled
// per-iteration time, clamped to [4, 64]. It sizes streaming sections and
// sets the chained indirect distance and the eviction lag. A stream's lead
// is at least this round trip, and a batched stream's is sized from its
// section (buildPlan): at the 64-element cap, a lead of this round trip
// keeps a scan one to four lines ahead.
func rttElems(prog *ir.Program, merged map[string]*analysis.ObjectAccess, col *profile.Collector, net netmodel.Config) int64 {
	d := int64(net.RTTEstimate(2048) / perIterEstimate(prog, merged, col))
	return minI64(maxI64(d, 4), 64)
}

// sectionDraft is a section under construction.
type sectionDraft struct {
	name      string
	structure cache.Structure
	ways      int
	lineBytes int
	// stride is the element size of a section whose line caches one field
	// span of each element (spanLineBytes); 0 for every other section.
	stride  int
	members []string // object names
	seqLike bool
	// reused marks sequential sections whose members are scanned more
	// than once: caching their footprint can beat streaming, so they are
	// sized by sampling like non-sequential sections (§4.3) instead of
	// by prefetch window.
	reused bool
	// fixed marks sections already sized (small reused footprints cached
	// whole); the analytic and sampling passes leave them alone.
	fixed     bool
	sizeBytes int64 // filled by sizing
	twoSided  bool
	selFields []string
	interval  [2]int
}

// candidate is one derived compilation: the runtime configuration, the
// codegen plan, and prog compiled against it.
type candidate struct {
	cfg  rt.Config
	plan *codegen.Plan
	prog *ir.Program
}

// compileError marks a buildConfig failure as codegen's — a transformed
// program that does not validate — rather than a budget too small to host
// the sections: the first fails the planning call, the second only rejects
// the candidate.
type compileError struct{ error }

// buildConfig derives the runtime configuration and codegen plan from the
// analysis report and profile (§4.2 cache-section configuration, §4.3
// sizing, §4.5 optimizations) and compiles prog against
// them — once: the sizing samples and the caller's timed run execute the
// same program.
func buildConfig(l *ledger, prog *ir.Program, report *analysis.Report, objs []string, col *profile.Collector, opts Options) (candidate, error) {
	tech := opts.Techniques
	merged := scopeAccess(report, objs)
	if len(merged) == 0 {
		return candidate{}, fmt.Errorf("planner: no analyzable objects among %v", objs)
	}

	// Group similar patterns into shared sections (§4.1 "we group
	// similar patterns into one section").
	drafts := groupSections(prog, merged, tech, opts.link())

	// Budget carve-up.
	local := prog.LocalBytes()
	var unselectedBytes int64
	for _, o := range prog.Objects {
		if o.Local {
			continue
		}
		if _, ok := merged[o.Name]; !ok {
			unselectedBytes += o.SizeBytes()
		}
	}
	remaining := opts.LocalBudget - local
	var pool int64
	if unselectedBytes > 0 {
		// Keep a swap pool for the objects left in the generic swap
		// section: their footprint plus 25% headroom (a pool sized
		// exactly at the working set cycles at the LRU capacity
		// boundary), capped at half the budget.
		pool = unselectedBytes + unselectedBytes/4 + 2*4096
		if min := int64(4 * 4096); pool < min {
			pool = min
		}
		if pool > remaining/2 {
			pool = remaining / 2
		}
		remaining -= pool
	}
	if remaining <= 0 {
		return candidate{}, fmt.Errorf("planner: no budget left for sections")
	}

	// Budget-aware line sizing: a 2 KB line is pointless when the whole
	// budget is a few KB.
	for _, d := range drafts {
		eb := elemBytesOf(prog, d.members[0])
		maxLine := int(remaining / 16)
		if maxLine < eb {
			maxLine = eb
		}
		if d.lineBytes > maxLine {
			d.lineBytes = (maxLine / eb) * eb
			if d.lineBytes < eb {
				d.lineBytes = eb
			}
		}
	}

	dElems := rttElems(prog, merged, col, opts.link())

	// Size sequential sections analytically: enough lines to hold the
	// prefetch window twice over (§4.3: "sequential and strided cache
	// sections only need a small size"), or — for sections serving
	// tensor intrinsics — the largest simultaneous operand working set,
	// so one operator's inputs and output stay co-resident.
	intervals, lastFunc := lifetimeIntervals(prog, merged)

	// Pass 1: small reused objects are cached whole — no tradeoff to
	// sample; large reused footprints will be sized by sampling + ILP.
	for _, d := range drafts {
		d.interval = sectionInterval(d, intervals)
		if !(d.seqLike && d.reused) {
			continue
		}
		if full := d.footprint(prog) + 2*int64(d.lineBytes); full <= remaining/8 {
			d.sizeBytes = full
			d.reused = false
			d.fixed = true
		}
	}

	// Pass 2: size streaming sections analytically — enough lines to hold
	// the prefetch window twice over (§4.3 "sequential and strided cache
	// sections only need a small size"), or, for sections serving tensor
	// intrinsics, the largest simultaneous operand working set so one
	// operator's inputs and output stay co-resident.
	var seqTotal int64
	for _, d := range drafts {
		if !d.seqLike || d.reused || d.fixed {
			continue
		}
		le := int64(1)
		if d.lineBytes > elemBytesOf(prog, d.members[0]) {
			le = int64(d.lineBytes / elemBytesOf(prog, d.members[0]))
		}
		window := dElems/le + 4
		if !tech.NoBatching {
			// Doorbell-batched prefetch lands a whole batch of future
			// lines at once; the section must hold it alongside the
			// regular window.
			window += analysis.DoorbellBatchLines(opts.link(), d.lineBytes, maxBatchLines)
		}
		d.sizeBytes = 2 * window * int64(d.lineBytes) * int64(len(d.members))
		var coRes int64
		for _, m := range d.members {
			if cr := merged[m].CoResidentBytes; cr > coRes {
				coRes = cr
			}
		}
		if coRes > 0 {
			// Tensor-operand section: hold a full operator plus slack.
			need := coRes + coRes/4 + 4*int64(d.lineBytes)
			if need > d.sizeBytes {
				d.sizeBytes = need
			}
			if d.sizeBytes > remaining*3/4 {
				d.sizeBytes = remaining * 3 / 4
			}
		} else if d.sizeBytes > remaining/4 {
			d.sizeBytes = remaining / 4
		}
		if (coRes > 0 || len(d.members) > 1) && d.structure == cache.Direct {
			// Multiple concurrent streams (several member objects, or a
			// tensor operator's operands) through a direct-mapped section
			// conflict-evict each other; set-associativity absorbs the
			// collisions at a small lookup premium (§4.2).
			d.structure = cache.SetAssoc
			if d.ways == 0 {
				d.ways = 4
			}
		}
		if d.sizeBytes < int64(d.lineBytes)*4 {
			d.sizeBytes = int64(d.lineBytes) * 4
		}
		seqTotal += d.sizeBytes
	}
	// Account the pass-1 fixed sections and shrink everything
	// proportionally if the analytic pass overshot.
	for _, d := range drafts {
		if d.fixed {
			seqTotal += d.sizeBytes
		}
	}
	avail := remaining - seqTotal
	if avail < 0 {
		scale := float64(remaining) / float64(2*seqTotal)
		avail = remaining / 2
		for _, d := range drafts {
			if d.seqLike && !d.reused {
				d.sizeBytes = int64(float64(d.sizeBytes) * scale)
				if d.sizeBytes < int64(d.lineBytes) {
					d.sizeBytes = int64(d.lineBytes)
				}
			}
		}
	}

	// Lifetime-bounded sections: release each object where its global
	// lifetime ends (§4.1), unless eviction hints are masked (the
	// Fig. 21 breakdown treats releases as part of the hint technique).
	var release map[string][]string
	if !tech.NoEvictHints {
		release = map[string][]string{}
		for name := range merged {
			if fn := lastFunc[name]; fn != "" && fn != prog.Entry {
				release[fn] = append(release[fn], name)
			}
		}
		for fn := range release {
			sort.Strings(release[fn])
		}
	}
	// build plans the drafts at their sizes as they stand — gather windows,
	// leads and batches are read from them — and compiles that plan: every
	// sizing sample runs the program its sizes give, and so does the final
	// candidate. The ledger hands back the program already built when the
	// plan, or what it compiles to, is unchanged.
	build := func() (*codegen.Plan, *ir.Program, error) {
		plan := buildPlan(prog, merged, drafts, dElems, tech, opts.link())
		plan.ReleaseAfter = release
		out, err := l.compile(prog, plan)
		if err != nil {
			return nil, nil, compileError{err}
		}
		return plan, out, nil
	}
	// Size non-sequential sections — and reused sequential ones, whose
	// footprint-vs-streaming tradeoff only sampling can settle: a single
	// such section takes everything; multiple are sampled and solved
	// (§4.3).
	var nonSeq []*sectionDraft
	for _, d := range drafts {
		if !d.seqLike || d.reused {
			if d.reused {
				d.sizeBytes = 0 // sampling will size it
			}
			nonSeq = append(nonSeq, d)
		}
	}
	seqTotal = 0
	for _, d := range drafts {
		if d.seqLike && !d.reused {
			seqTotal += d.sizeBytes
		}
	}
	avail = remaining - seqTotal
	var minAvail int64
	for _, d := range nonSeq {
		minAvail += 8 * int64(d.lineBytes)
	}
	if avail < minAvail {
		// Streaming sections squeezed the budget dry: scale them back
		// so every sampled section can hold at least a few of its lines.
		if seqTotal > 0 {
			scale := float64(remaining-minAvail) / float64(seqTotal)
			if scale < 0 {
				scale = 0
			}
			for _, d := range drafts {
				if d.seqLike && !d.reused {
					d.sizeBytes = int64(float64(d.sizeBytes) * scale)
					if d.sizeBytes < int64(d.lineBytes) {
						d.sizeBytes = int64(d.lineBytes)
					}
				}
			}
			seqTotal = 0
			for _, d := range drafts {
				if d.seqLike && !d.reused {
					seqTotal += d.sizeBytes
				}
			}
		}
		avail = remaining - seqTotal
		if avail < int64(len(nonSeq)) {
			return candidate{}, fmt.Errorf("planner: budget %d too small for %d sampled sections", opts.LocalBudget, len(nonSeq))
		}
	}
	switch len(nonSeq) {
	case 0:
		// Sequential-only: return unused budget to the swap pool.
		pool += avail
	case 1:
		nonSeq[0].sizeBytes = avail
	default:
		if err := sizeBySampling(l, build, prog, drafts, nonSeq, avail, pool, opts); err != nil {
			return candidate{}, err
		}
	}

	normalizeSizes(drafts, remaining)
	wholeIndirect(prog, merged, drafts)
	plan, compiled, err := build()
	if err != nil {
		return candidate{}, err
	}
	cfg := assembleConfig(prog, drafts, merged, pool, opts)
	return candidate{cfg, plan, compiled}, nil
}

// scopeAccess is the program-level view of each of objs the report
// classifies: the objects a candidate places in sections.
func scopeAccess(report *analysis.Report, objs []string) map[string]*analysis.ObjectAccess {
	merged := map[string]*analysis.ObjectAccess{}
	for _, name := range objs {
		if m := report.MergedObject(name); m != nil && m.Pattern != analysis.PatternNone {
			merged[name] = m
		}
	}
	return merged
}

// wholeIndirect gives an indirect section that holds its members' whole
// footprint the sequential line size. Such a section never evicts, so a
// wider line wastes no capacity: each line is fetched at most once, in a
// sixteenth of the messages, and the section keeps a sixteenth of the
// per-line metadata. The section shrinks to the footprint's lines, plus one
// per member, whose start need not fall on a line boundary. A span section
// trades its span for the wider line only when that line holds several
// elements: with one element per line it would save no message and fetch
// every field the scope never reads.
func wholeIndirect(prog *ir.Program, merged map[string]*analysis.ObjectAccess, drafts []*sectionDraft) {
	for _, d := range drafts {
		eb := elemBytesOf(prog, d.members[0])
		if merged[d.members[0]].Pattern != analysis.PatternIndirect || (d.stride > 0 && seqLineBytes(eb) <= eb) {
			continue
		}
		foot := d.footprint(prog)
		if d.sizeBytes < foot {
			continue
		}
		line := int64(seqLineBytes(eb))
		d.lineBytes, d.stride = int(line), 0
		d.sizeBytes = minI64(d.sizeBytes/line*line, (foot+line-1)/line*line+line*int64(len(d.members)))
	}
}

// normalizeSizes scales section sizes down proportionally if the carve-up
// overshoots the budget, flooring each section at one line.
func normalizeSizes(drafts []*sectionDraft, remaining int64) {
	var total int64
	for _, d := range drafts {
		if d.sizeBytes < int64(d.lineBytes) {
			d.sizeBytes = int64(d.lineBytes)
		}
		total += d.sizeBytes
	}
	if total <= remaining {
		return
	}
	for _, d := range drafts {
		d.sizeBytes = d.sizeBytes * remaining / total
		if d.sizeBytes < int64(d.lineBytes) {
			d.sizeBytes = int64(d.lineBytes)
		}
	}
	// Floors may still overshoot on absurdly small budgets; shrink lines
	// as the last resort.
	for {
		total = 0
		for _, d := range drafts {
			total += d.sizeBytes
		}
		if total <= remaining {
			return
		}
		shrunk := false
		for _, d := range drafts {
			if d.sizeBytes > int64(d.lineBytes) {
				d.sizeBytes = int64(d.lineBytes)
				shrunk = true
			}
		}
		if !shrunk {
			return // nothing left to give back; Validate will reject
		}
	}
}

// groupSections clusters objects by access pattern (§4.1).
func groupSections(prog *ir.Program, merged map[string]*analysis.ObjectAccess, tech TechniqueMask, net netmodel.Config) []*sectionDraft {
	byKey := map[string]*sectionDraft{}
	var order []string
	names := make([]string, 0, len(merged))
	for n := range merged {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		m := merged[name]
		o, _ := prog.Object(name)
		var key string
		var d sectionDraft
		switch m.Pattern {
		case analysis.PatternSequential, analysis.PatternStrided, analysis.PatternInvariant:
			line := seqLineBytes(o.ElemBytes)
			if key = streamSection(o, m); key == "" {
				// Re-scanned objects get private sections so the
				// sampling + ILP can trade their footprints off
				// against each other (§4.3).
				key = "seqr-" + name
				d = sectionDraft{name: key, structure: cache.Direct, lineBytes: line, seqLike: true, reused: true}
				break
			}
			d = sectionDraft{name: key, structure: cache.Direct, lineBytes: line, seqLike: true}
		case analysis.PatternIndirect:
			key = "ind-" + name // indirect objects get private sections: their
			// footprints and via-chains differ
			d = sectionDraft{name: key, structure: cache.SetAssoc, ways: 4, lineBytes: randLineBytes(o.ElemBytes)}
		default: // PatternRandom
			key = "rand-" + name
			d = sectionDraft{name: key, structure: cache.FullAssoc, lineBytes: randLineBytes(o.ElemBytes)}
		}
		if !d.seqLike && !tech.NoSelective {
			// Selective transmission (§4.5) by line size: a line that holds
			// only the accessed field span of an element moves only those
			// bytes, one-sided.
			if line := spanLineBytes(o, m.Fields); line > 0 {
				d.lineBytes, d.stride = line, o.ElemBytes
			}
		}
		if tech.ForceFullAssoc {
			d.structure = cache.FullAssoc
		}
		if existing, ok := byKey[key]; ok {
			existing.members = append(existing.members, name)
			continue
		}
		d.members = []string{name}
		byKey[key] = &d
		order = append(order, key)
	}
	out := make([]*sectionDraft, 0, len(order))
	for _, k := range order {
		d := byKey[k]
		// Two-sided selective transmission (§4.5), for accessed fields no
		// span line holds: only they travel, when they cover less than
		// half the element AND the modeled two-sided gather beats pulling
		// the whole line one-sided — the penalty of the two-sided path (the
		// far CPU assembles the reply) only pays off once the line is
		// large enough that its wire and chunking time dominate.
		if !tech.NoSelective && d.stride == 0 {
			m := merged[d.members[0]]
			if len(d.members) == 1 && m.AccessedBytes > 0 && m.AccessedBytes*2 <= m.ElemBytes && !containsWhole(m.Fields) &&
				net.TwoSidedCost(int(m.AccessedBytes)) < net.OneSidedCost(d.lineBytes) {
				d.twoSided = true
				d.selFields = m.Fields
			}
		}
		out = append(out, d)
	}
	return out
}

// streamSection names the shared streaming section that object o, accessed
// as m describes, goes to: single-pass streams of one line size share one
// small section, sized by its prefetch lead rather than by its members'
// footprint (§4.2). It is "" for every other object. groupSections places
// objects by it, and the planner's scope rule (joinStreams) admits streams
// by it, so the two cannot disagree on where a stream lands.
func streamSection(o *ir.Object, m *analysis.ObjectAccess) string {
	switch m.Pattern {
	case analysis.PatternSequential, analysis.PatternStrided, analysis.PatternInvariant:
		if m.Scans < 2 {
			return fmt.Sprintf("seq%d", seqLineBytes(o.ElemBytes))
		}
	}
	return ""
}

func containsWhole(fields []string) bool {
	for _, f := range fields {
		if f == "" {
			return true
		}
	}
	return false
}

// seqLineBytes picks a sequential section's line size: as large as the
// network transmits efficiently (§4.2, Fig. 9's ~2 KB knee), and a multiple
// of the element size.
func seqLineBytes(elemBytes int) int {
	const target = 2048
	if elemBytes >= target {
		return elemBytes
	}
	line := (target / elemBytes) * elemBytes
	return line
}

// spanLineBytes is the line of a random/indirect section that caches only
// the fields the scope accesses of each element (§4.2: "the smallest size
// that can hold the accessed data unit"): the smallest power of two, at
// least 8 B, that divides the element and whose aligned slot holds every
// one of fields. It is 0 when there is none narrower than the element — the
// whole element is accessed, or the fields straddle every slot that divides
// it — and the section keeps randLineBytes' whole-element line.
func spanLineBytes(o *ir.Object, fields []string) int {
	lo, hi := o.ElemBytes, 0
	for _, name := range fields {
		f, ok := o.FieldByName(name)
		if !ok || name == "" {
			return 0
		}
		lo, hi = min(lo, f.Offset), max(hi, f.Offset+f.Bytes)
	}
	if hi <= lo {
		return 0
	}
	for line := 8; line < o.ElemBytes; line *= 2 {
		if o.ElemBytes%line == 0 && lo/line == (hi-1)/line {
			return line
		}
	}
	return 0
}

// randLineBytes picks a random/indirect section's line size when no span
// line does: the smallest power of two holding one element.
func randLineBytes(elemBytes int) int {
	line := 64
	for line < elemBytes {
		line *= 2
	}
	return line
}

// spanBytes is the most a span section (stride set) can use: one line per
// element of its members, since lines past that could never fill. It is 0
// for every other section, which has no such bound.
func (d *sectionDraft) spanBytes(prog *ir.Program) int64 {
	if d.stride == 0 {
		return 0
	}
	var elems int64
	for _, m := range d.members {
		if o, ok := prog.Object(m); ok {
			elems += o.Count
		}
	}
	return elems * int64(d.lineBytes)
}

// footprint is the bytes d's members take in far memory.
func (d *sectionDraft) footprint(prog *ir.Program) int64 {
	var foot int64
	for _, m := range d.members {
		if o, ok := prog.Object(m); ok {
			foot += o.SizeBytes()
		}
	}
	return foot
}

// holdsAll reports whether d's section has a slot for every line its
// members can have — one per element of a span section (spanBytes), the
// whole footprint of any other, each member starting on a line boundary —
// so it never evicts. A set-associative section holds whole sets only.
func (d *sectionDraft) holdsAll(prog *ir.Program) bool {
	lb := int64(d.lineBytes)
	need := d.spanBytes(prog) / lb
	if need == 0 {
		need = (d.footprint(prog)+lb-1)/lb + int64(len(d.members)) - 1
	}
	lines := d.held(prog) / lb
	if ways := int64(d.ways); d.structure == cache.SetAssoc && ways > 0 && ways < lines {
		lines -= lines % ways
	}
	return lines >= need
}

// held is the part of d's size its section holds: all of it, or a span
// section's spanBytes. assembleConfig gives the rest to the swap pool.
func (d *sectionDraft) held(prog *ir.Program) int64 {
	if sb := d.spanBytes(prog); sb > 0 {
		return min(d.sizeBytes, sb)
	}
	return d.sizeBytes
}

func elemBytesOf(prog *ir.Program, name string) int {
	o, _ := prog.Object(name)
	return o.ElemBytes
}

// maxBatchLines caps the doorbell-batch depth: past this the wire time of
// the extra lines dwarfs the amortized overheads and the warm-up cost of the
// deeper window stops paying for itself.
const maxBatchLines = 16

// buildPlan assembles the codegen plan from the drafts.
func buildPlan(prog *ir.Program, merged map[string]*analysis.ObjectAccess, drafts []*sectionDraft, dElems int64, tech TechniqueMask, net netmodel.Config) *codegen.Plan {
	plan := &codegen.Plan{
		Objects:            map[string]*codegen.ObjectPlan{},
		FuseLoops:          !tech.NoBatching,
		BatchFusedPrefetch: !tech.NoBatching,
	}
	for _, d := range drafts {
		// streams counts the section's sequential and strided members: they
		// share its lead budget.
		var streams int64
		for _, name := range d.members {
			if p := merged[name].Pattern; p == analysis.PatternSequential || p == analysis.PatternStrided {
				streams++
			}
		}
		for _, name := range d.members {
			m := merged[name]
			o, _ := prog.Object(name)
			le := int64(d.lineBytes / o.ElemBytes)
			if le < 1 {
				le = 1
			}
			op := &codegen.ObjectPlan{
				Object:    name,
				Pattern:   m.Pattern,
				LineElems: le,
			}
			// rtt is the round-trip distance max(2·dElems, le); the
			// eviction lag follows it, not the lead.
			var rtt int64
			if !tech.NoPrefetch {
				switch m.Pattern {
				case analysis.PatternSequential, analysis.PatternStrided:
					// A batch may take at most a quarter of the section, or
					// landing it would evict the live window and thrash; the
					// cap is per stream, so the batches of a section's
					// several streams can still overcommit it. The streams
					// share another quarter for their leads. A batched
					// stream leads by the most whole lines
					// of its share, never nearer than the round trip: it
					// reads the section, not the noisy profile. An unbatched
					// stream keeps the round trip: with no priming doorbell,
					// every line its lead skips at the loop's start is a
					// demand miss. A reused section is unsized when the plan
					// is first built: it gets the round-trip lead and no
					// batching rather than a guess. Once sampling has sized it,
					// the final plan reads its leads and batches from that
					// size, as from any other section's.
					capLines := int64(0)
					if d.lineBytes > 0 && d.sizeBytes > 0 {
						capLines = d.sizeBytes / int64(d.lineBytes)
					}
					rtt = maxI64(2*dElems, le)
					op.PrefetchDistance = (rtt + le - 1) / le * le
					if !tech.NoBatching {
						if b := analysis.DoorbellBatchLines(net, d.lineBytes, minI64(maxBatchLines, capLines/4)); b >= 2 {
							op.BatchLines = b
							op.PrefetchDistance = maxI64(capLines/4/streams*le, op.PrefetchDistance)
						}
					}
				case analysis.PatternIndirect:
					if via := m.IndirectVia; via != "" {
						if _, ok := merged[via]; ok {
							op.PrefetchDistance = dElems
							op.ChainedFrom = via
						}
					}
				}
			}
			if !tech.NoNative && d.seqLike && op.PrefetchDistance > 0 {
				op.Native = true
			}
			if !tech.NoRWOpt && m.SequentialWholeElementWrite {
				op.NoFetch = true
			}
			// Eviction hints mark data dead behind the scan front
			// (§4.5) — only sound when the scope's scan is the
			// object's last use. A re-scanned object (multiple
			// static or dynamic scans) must keep its lines for the
			// next pass.
			if !tech.NoEvictHints && m.LastLoopSequential && d.seqLike && m.Scans <= 1 {
				op.EvictLag = maxI64(2*rtt, 2*le)
			}
			plan.Objects[name] = op
		}
	}
	if !tech.NoBatching {
		setGatherWindows(prog, plan, drafts)
	}
	// A chained target whose section holds every line it can have compiles
	// to native loads (§4.4): the section never evicts, and the chain's
	// priming gather and the gathers that follow cover each line's first
	// touch, so every later access finds its line resident. The runtime
	// still checks each one and counts a failed claim (rt.NativeFallbacks).
	for _, d := range drafts {
		if tech.NoNative || d.seqLike || !d.holdsAll(prog) {
			continue
		}
		for _, name := range d.members {
			if op := plan.Objects[name]; op.ChainedFrom != "" && op.PrefetchDistance > 0 {
				op.Native = true
			}
		}
	}
	return plan
}

// setGatherWindows gives every chained target its gather window G, in
// source elements, for a lead of D = codegen.GatherAhead windows. Two
// windows of target lines, k chained prefetches per element each, hold at
// most an eighth of the target's section, so G = max(4, capLines/(16·k)) —
// 4 is rttElems' floor — read from the section's size as the drafts have
// it. With the lead, D+1 windows (3·G·k lines) are resident or landing
// against that budget for two; DESIGN §9 records why budgeting for all of
// them, capLines/(8·(D+1)·k), was rejected. The gather's native source
// loads run up to D+1 windows ahead and must find their lines prefetched
// and still resident, so G is then capped twice: (D+1)·G stays within the
// source stream's lead, and the source lines of all D+1 windows fit in the
// source's section beside the line the loop is reading. The second cap
// waits for the section to have a size: a reused one is sized by sampling
// the first plan's program, which must gather as the final program will.
// A window of 0 keeps the per-element chain.
func setGatherWindows(prog *ir.Program, plan *codegen.Plan, drafts []*sectionDraft) {
	ks := codegen.ChainsPerElement(prog, plan)
	lines := map[string]int64{} // each object's section, in lines
	for _, d := range drafts {
		for _, name := range d.members {
			lines[name] = d.held(prog) / int64(d.lineBytes)
		}
	}
	const inFlight = codegen.GatherAhead + 1 // windows of source loads in flight
	for name, op := range plan.Objects {
		src := plan.Objects[op.ChainedFrom]
		k := ks[name]
		if src == nil || k == 0 || op.PrefetchDistance <= 0 {
			continue
		}
		g := minI64(maxI64(4, lines[name]/(16*k)), src.PrefetchDistance/inFlight)
		if srcLines := lines[op.ChainedFrom]; srcLines > 0 {
			g = minI64(g, (srcLines-1)*src.LineElems/inFlight)
		}
		op.GatherWindow = maxI64(0, g)
	}
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// decideOffloads applies the §4.8 cost model when EnableOffload is set,
// never offloading the entry. The model weighs the bytes each function
// touches of the scope's objects, so it analyses the scope funcs × objs on
// its own rather than reading the iteration's wider report.
func (p *planning) decideOffloads(prog *ir.Program, funcs, objs []string) ([]string, error) {
	opts := p.opts
	if !opts.EnableOffload {
		return nil, nil
	}
	report, err := analysis.Analyze(prog, funcs, objs)
	if err != nil {
		return nil, err
	}
	params := analysis.OffloadParams{
		Net:            opts.link(),
		ComputeOp:      rt.DefaultCostModel().ComputeOp,
		RemoteSlowdown: cluster.Testbed(opts.Cluster).NodeCfg.CPUSlowdown,
		LineBytes:      2048,
	}
	var out []string
	for _, d := range analysis.DecideOffload(prog, report, params) {
		if d.Offload && d.Func != prog.Entry {
			out = append(out, d.Func)
		}
	}
	return out, nil
}

// sampleRatios are the section sizes sampled, as fractions of the available
// budget (§4.3).
var sampleRatios = [...]float64{0.2, 0.4, 0.6, 0.8}

// sizeBySampling profiles each non-sequential section at the sampled size
// ratios and solves the ILP (§4.3). build compiles the program the drafts'
// sizes give (buildConfig's build).
func sizeBySampling(l *ledger, build func() (*codegen.Plan, *ir.Program, error), prog *ir.Program, all []*sectionDraft, nonSeq []*sectionDraft, avail, pool int64, opts Options) error {
	problem := solver.Problem{Budget: avail}
	for i, d := range nonSeq {
		sec := solver.Section{Name: d.name, Start: d.interval[0], End: d.interval[1]}
		if sec.End <= sec.Start {
			sec.End = sec.Start + 1
		}
		for _, ratio := range sampleRatios {
			size := int64(float64(avail) * ratio)
			if size < int64(d.lineBytes)*4 {
				size = int64(d.lineBytes) * 4
			}
			if sb := d.spanBytes(prog); sb > 0 && size > sb {
				// A span section gains nothing past one line per
				// element: offer the ILP that size, not budget it
				// would hand to the swap pool.
				size = sb
			}
			overhead, size, err := sampleRun(l, build, prog, all, nonSeq, i, size, avail, pool, opts)
			if err != nil {
				return err
			}
			sec.Candidates = append(sec.Candidates, solver.Candidate{SizeBytes: size, Overhead: overhead})
		}
		problem.Sections = append(problem.Sections, sec)
	}
	assignment, _, err := solver.Solve(problem)
	if err != nil {
		// Too many small sections for the budget to satisfy every
		// sampled candidate: fall back to a footprint-proportional
		// split (still measured, and rolled back if it loses).
		var totalFoot int64
		foots := make([]int64, len(nonSeq))
		for i, d := range nonSeq {
			foots[i] = d.footprint(prog)
			totalFoot += foots[i]
		}
		if totalFoot <= 0 {
			return err
		}
		for i, d := range nonSeq {
			d.sizeBytes = avail * foots[i] / totalFoot
			if d.sizeBytes < int64(d.lineBytes) {
				d.sizeBytes = int64(d.lineBytes)
			}
		}
		return nil
	}
	for _, d := range nonSeq {
		d.sizeBytes = assignment[d.name]
	}
	return nil
}

// sampleRun runs the program planned with nonSeq[target] at size and the
// other non-sequential sections splitting the rest, returning the sim time
// the target section stalled that run (rt.Runtime.SectionStall) and the size
// it ran at: the others hold at least two lines each, and when those floors
// leave less than size, the target runs at what they leave, so the sample
// fits the budget. The stall is absolute, not its share of the run: a share
// also falls when the rest of the run grows, so it can price a section size
// that slows the whole run as the cheaper one.
func sampleRun(l *ledger, build func() (*codegen.Plan, *ir.Program, error), prog *ir.Program, all []*sectionDraft, nonSeq []*sectionDraft, target int, size, avail, pool int64, opts Options) (float64, int64, error) {
	rest := avail - size
	if rest < 0 {
		rest = 0
	}
	share := rest
	if len(nonSeq) > 1 {
		share = rest / int64(len(nonSeq)-1)
	}
	saved := make([]int64, len(nonSeq))
	var others int64
	for i, d := range nonSeq {
		saved[i] = d.sizeBytes
		if i != target {
			d.sizeBytes = maxI64(share, int64(d.lineBytes)*2)
			others += d.sizeBytes
		}
	}
	if left := avail - others; left < size && left >= int64(nonSeq[target].lineBytes) {
		size = left
	}
	nonSeq[target].sizeBytes = size
	defer func() {
		for i, d := range nonSeq {
			d.sizeBytes = saved[i]
		}
	}()

	_, compiled, err := build()
	if err != nil {
		return 0, size, err
	}
	merged := map[string]*analysis.ObjectAccess{} // placements only need membership
	for _, d := range all {
		for _, m := range d.members {
			merged[m] = nil
		}
	}
	out := l.time(compiled, assembleConfig(prog, all, merged, pool, opts))
	if out.err != nil {
		return 0, size, out.err
	}
	return float64(out.stall[sectionIndex(all, nonSeq[target].name)]), size, nil
}

func sectionIndex(all []*sectionDraft, name string) int {
	for i, d := range all {
		if d.name == name {
			return i
		}
	}
	return -1
}

// assembleConfig turns drafts into an rt.Config. merged is used only for
// membership (placements).
func assembleConfig(prog *ir.Program, drafts []*sectionDraft, merged map[string]*analysis.ObjectAccess, pool int64, opts Options) rt.Config {
	// A span section's surplus over its held size goes to the swap pool,
	// so the carve-up stays what was asked for. Line-size floors may nudge
	// the carve-up past the budget; the swap pool's headroom absorbs the
	// slack.
	sizes := make([]int64, len(drafts))
	var total int64
	for i, d := range drafts {
		size := max(d.sizeBytes, int64(d.lineBytes))
		if h := max(d.held(prog), int64(d.lineBytes)); h < size {
			pool += size - h
			size = h
		}
		sizes[i] = size
		total += size
	}
	if excess := total + pool - (opts.LocalBudget - prog.LocalBytes()); excess > 0 {
		pool -= excess
		// A pool that shrank below one page is only restored to a page
		// when that still fits; growing it past the budget would just
		// trade a section overshoot for a pool overshoot (the runtime
		// validates either way, and the planner rejects the candidate).
		if pool < 4096 && total+4096 <= opts.LocalBudget-prog.LocalBytes() {
			pool = 4096
		}
		if pool < 0 {
			pool = 0
		}
	}
	cfg := rt.Config{
		LocalBudget:         opts.LocalBudget,
		SwapPool:            pool,
		Placements:          map[string]rt.Placement{},
		Cost:                rt.DefaultCostModel(),
		Net:                 opts.link(),
		Cluster:             opts.Cluster,
		WritebackQueueLines: opts.Techniques.writebackQueueLines(),
		SwapCompress:        opts.Compress == "on",
	}
	for i, d := range drafts {
		cfg.Sections = append(cfg.Sections, rt.SectionSpec{
			Cache: cache.Config{
				Name:      d.name,
				Structure: d.structure,
				Ways:      d.ways,
				LineBytes: d.lineBytes,
				SizeBytes: sizes[i],
				Stride:    d.stride,
			},
			TwoSided:        d.twoSided,
			SelectiveFields: d.selFields,
			Compress:        opts.Compress == "on",
		})
		for _, m := range d.members {
			cfg.Placements[m] = rt.Placement{Kind: rt.PlaceSection, Section: i}
		}
	}
	return cfg
}

// lifetimeIntervals assigns each object a [start,end) interval in a global
// pre-order statement numbering that expands calls inline — the abstract
// time axis of the sizing ILP (§4.3: "during any time, the total size of
// live sections should be no larger than ... local memory").
func lifetimeIntervals(prog *ir.Program, merged map[string]*analysis.ObjectAccess) (map[string][2]int, map[string]string) {
	intervals := map[string][2]int{}
	lastFunc := map[string]string{}
	counter := 0
	stack := map[string]bool{}
	current := ""
	mark := func(obj string) {
		if _, ok := merged[obj]; !ok {
			return
		}
		lastFunc[obj] = current
		iv, ok := intervals[obj]
		if !ok {
			intervals[obj] = [2]int{counter, counter + 1}
			return
		}
		if counter+1 > iv[1] {
			iv[1] = counter + 1
		}
		if counter < iv[0] {
			iv[0] = counter
		}
		intervals[obj] = iv
	}
	var walkFn func(name string)
	var walkBlock func(body []ir.Stmt)
	walkBlock = func(body []ir.Stmt) {
		for _, s := range body {
			counter++
			switch st := s.(type) {
			case *ir.Load:
				mark(st.Obj)
			case *ir.Store:
				mark(st.Obj)
			case *ir.Intrinsic:
				for _, t := range []ir.TensorRef{st.Dst, st.A, st.B} {
					if t.Obj != "" {
						mark(t.Obj)
					}
				}
			case *ir.Loop:
				walkBlock(st.Body)
			case *ir.If:
				walkBlock(st.Then)
				walkBlock(st.Else)
			case *ir.Call:
				walkFn(st.Callee)
			}
		}
	}
	walkFn = func(name string) {
		if stack[name] {
			return
		}
		stack[name] = true
		prev := current
		current = name
		if fn, ok := prog.Func(name); ok {
			walkBlock(fn.Body)
		}
		current = prev
		delete(stack, name)
	}
	walkFn(prog.Entry)
	return intervals, lastFunc
}

// sectionInterval is the union of member intervals.
func sectionInterval(d *sectionDraft, intervals map[string][2]int) [2]int {
	out := [2]int{0, 1}
	first := true
	for _, m := range d.members {
		iv, ok := intervals[m]
		if !ok {
			continue
		}
		if first {
			out = iv
			first = false
			continue
		}
		if iv[0] < out[0] {
			out[0] = iv[0]
		}
		if iv[1] > out[1] {
			out[1] = iv[1]
		}
	}
	return out
}
