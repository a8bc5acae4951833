package rt

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mira/internal/cache"
	"mira/internal/codec"
)

// refDeltaPlan is deltaPlan's widening loop as it was before the plan came
// from one pass over the line: a fresh DiffRanges at every join gap, then the
// piece bound and the ¾ test on the last of them. It returns the counters
// the plan moves.
func refDeltaPlan(snap, data []byte) (ranges []codec.Range, skip bool, st WbqStats) {
	rs := codec.DiffRanges(snap, data, deltaJoinGap)
	if len(rs) == 0 {
		st.DeltaSkipped++
		return nil, true, st
	}
	for gap := deltaJoinGap * 4; len(rs) > maxDeltaPieces && gap <= len(data); gap *= 4 {
		rs = codec.DiffRanges(snap, data, gap)
	}
	if len(rs) > maxDeltaPieces {
		return nil, false, st
	}
	patch := 0
	for _, rg := range rs {
		patch += rg.Len
	}
	if patch*4 > len(data)*3 {
		return nil, false, st
	}
	st.DeltaLines++
	st.DeltaSaved += int64(len(data) - patch)
	return rs, false, st
}

// deltaChanges are the ways the oracle dirties a snapshot: each edits line
// in place (every edit flips bits, so an edited byte always differs).
var deltaChanges = []struct {
	name string
	edit func(rng *rand.Rand, line []byte)
}{
	{"none", func(*rand.Rand, []byte) {}},
	{"one-field", func(rng *rand.Rand, line []byte) {
		off := rng.Intn(len(line)/8) * 8
		for i := off; i < min(off+8, len(line)); i++ {
			line[i] ^= byte(1 + rng.Intn(255))
		}
	}},
	{"every-16th", func(rng *rand.Rand, line []byte) {
		for i := rng.Intn(16); i < len(line); i += 16 {
			line[i] ^= 0x5a
		}
	}},
	{"clustered", func(rng *rand.Rand, line []byte) {
		for range 1 + rng.Intn(4) {
			off, n := rng.Intn(len(line)), 1+rng.Intn(64)
			for i := off; i < min(off+n, len(line)); i++ {
				line[i] ^= byte(1 + rng.Intn(255))
			}
		}
	}},
	{"random", func(rng *rand.Rand, line []byte) {
		for range 1 + rng.Intn(len(line)/4) {
			line[rng.Intn(len(line))] ^= byte(1 + rng.Intn(255))
		}
	}},
	// Changes whose gaps sit on and either side of every join gap the
	// widening tries, with enough pieces to make it try them.
	{"gap-edges", func(rng *rand.Rand, line []byte) {
		gaps := []int{7, 8, 9, 31, 32, 33, 127, 128, 129, 511, 512, 513}
		gap := gaps[rng.Intn(len(gaps))]
		for i := rng.Intn(4); i < len(line); i += gap + 1 + rng.Intn(2) {
			line[i] ^= 0xff
		}
	}},
}

// TestDeltaPlanMatchesReference drives deltaPlan and refDeltaPlan over
// seeded (snapshot, dirty line) pairs at four line sizes: the same patch or
// skip, the same counters, one encode charged, and the snapshot's buffer
// back in the section's stock.
func TestDeltaPlanMatchesReference(t *testing.T) {
	seen := map[string]int{}
	for _, lineBytes := range []int{128, 2040, 2048, 4096} {
		r, clk := mkRuntime(t, func(c *Config) {
			c.Sections[0].Cache = cache.Config{Name: "items", Structure: cache.Direct, LineBytes: lineBytes, SizeBytes: 8 * int64(lineBytes)}
			c.Sections[0].Compress = true
		})
		s, o := r.secs[0], r.objs["items"]
		encode := codec.DefaultCostModel().EncodeCost(lineBytes)
		for _, ch := range deltaChanges {
			rng := rand.New(rand.NewSource(int64(lineBytes)))
			for trial := range 200 {
				base := make([]byte, lineBytes)
				for i := range base {
					if rng.Intn(4) == 0 {
						base[i] = byte(rng.Intn(256))
					}
				}
				data := slices.Clone(base)
				ch.edit(rng, data)
				name := fmt.Sprintf("%d/%s/%d", lineBytes, ch.name, trial)

				snap := s.sec.Spare()
				copy(snap, base)
				s.snaps[o.farBase] = snap
				st0, t0 := r.wbqStats, clk.Now()
				p, skip := r.deltaPlan(clk, s, o, o.farBase, data)
				wantRanges, wantSkip, wantSt := refDeltaPlan(base, data)

				var got []codec.Range
				for i := range p.n {
					got = append(got, p.at(i))
				}
				if skip != wantSkip || !slices.Equal(got, wantRanges) {
					t.Fatalf("%s: deltaPlan = %v skip %v, reference %v skip %v", name, got, skip, wantRanges, wantSkip)
				}
				d := r.wbqStats
				d.DeltaSkipped -= st0.DeltaSkipped
				d.DeltaLines -= st0.DeltaLines
				d.DeltaSaved -= st0.DeltaSaved
				if d != wantSt {
					t.Fatalf("%s: counters moved by %+v, reference %+v", name, d, wantSt)
				}
				if charged := clk.Now().Sub(t0); charged != encode {
					t.Fatalf("%s: charged %v, want one encode of the line (%v)", name, charged, encode)
				}
				if _, kept := s.snaps[o.farBase]; kept {
					t.Fatalf("%s: the snapshot outlived its plan", name)
				}
				buf := s.sec.Spare()
				if &buf[0] != &snap[0] {
					t.Fatalf("%s: the snapshot's buffer did not go back to the section", name)
				}
				s.sec.Recycle(buf)

				switch {
				case skip:
					seen["skip"]++
				case p.n == 0:
					seen["full line"]++
				case len(codec.DiffRanges(base, data, deltaJoinGap)) > maxDeltaPieces:
					seen["widened patch"]++
				default:
					seen["patch"]++
				}
			}
		}
	}
	for _, k := range []string{"skip", "full line", "widened patch", "patch"} {
		if seen[k] == 0 {
			t.Errorf("no pair planned a %s: %v", k, seen)
		}
	}
	t.Log(seen)
}
