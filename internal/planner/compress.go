package planner

import (
	"mira/internal/analysis"
	"mira/internal/rt"
)

// compressSampler captures each object's sampled compressibility during an
// untimed workload Init — the planner's measurement protocol for the wire
// codec: no runtime, no far node, just the initial bytes the wire would
// actually carry.
type compressSampler struct {
	ratios map[string]float64
}

func (s *compressSampler) InitObject(name string, data []byte) error {
	s.ratios[name] = analysis.Compressibility(data)
	return nil
}

// sampleCompressibility runs the workload's Init against the sampler.
func sampleCompressibility(w Workload) map[string]float64 {
	s := &compressSampler{ratios: map[string]float64{}}
	if err := w.Init(s); err != nil {
		// An Init that only works against a real runtime yields no
		// samples; the screen then proposes nothing and only the
		// measured all-on candidate races.
		return map[string]float64{}
	}
	return s.ratios
}

// sectionCompressible reports whether every member object of section idx
// cleared the sampled-compressibility bar (with at least one member seen).
func sectionCompressible(cfg rt.Config, idx int, ratios map[string]float64) bool {
	members := 0
	for name, pl := range cfg.Placements {
		if pl.Kind != rt.PlaceSection || pl.Section != idx {
			continue
		}
		r, ok := ratios[name]
		if !ok || r > analysis.CompressWorthwhile {
			return false
		}
		members++
	}
	return members > 0
}

// swapCompressible applies the same bar to the objects left in the generic
// swap section (unplaced objects default there).
func swapCompressible(cfg rt.Config, ratios map[string]float64) bool {
	members := 0
	for name, r := range ratios {
		pl, placed := cfg.Placements[name]
		if placed && pl.Kind != rt.PlaceSwap {
			continue
		}
		if r > analysis.CompressWorthwhile {
			return false
		}
		members++
	}
	return members > 0
}

// withCompressFlags clones cfg with fresh per-section compress flags.
func withCompressFlags(cfg rt.Config, on func(i int) bool, swapOn bool) rt.Config {
	out := cfg
	out.Sections = append([]rt.SectionSpec(nil), cfg.Sections...)
	for i := range out.Sections {
		out.Sections[i].Compress = on(i)
	}
	out.SwapCompress = swapOn
	return out
}

func sameCompressFlags(a, b rt.Config) bool {
	if a.SwapCompress != b.SwapCompress || len(a.Sections) != len(b.Sections) {
		return false
	}
	for i := range a.Sections {
		if a.Sections[i].Compress != b.Sections[i].Compress {
			return false
		}
	}
	return true
}

// compressAuto is the Compress="auto" phase: after the structural iterations
// settle, screen sections by sampled compressibility, then race the screened
// subset and the all-on configuration against the accepted plan through try,
// the accept step the iterations use. The incumbent only ever loses to a
// faster candidate, so auto is never slower than off; all-on is always among
// the candidates, so auto is never slower than on either.
func (p *planning) compressAuto() {
	res := p.res
	ratios := sampleCompressibility(p.l.w)
	screened := withCompressFlags(res.Config,
		func(i int) bool { return sectionCompressible(res.Config, i, ratios) },
		swapCompressible(res.Config, ratios))
	allOn := withCompressFlags(res.Config, func(int) bool { return true }, true)

	var moves []move
	if !sameCompressFlags(screened, res.Config) {
		moves = append(moves, move{name: "compress screened", cfg: screened})
	}
	if !sameCompressFlags(allOn, screened) {
		moves = append(moves, move{name: "compress all-on", cfg: allOn})
	}
	for _, m := range moves {
		m.prog, m.plan, m.offloaded = res.Program, res.Plan, res.Offloaded
		p.try(m)
	}
}
