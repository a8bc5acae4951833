package rt

import (
	"testing"

	"mira/internal/cache"
)

// TestPrefetchHitRefreshesRecency: a prefetch, single or batched, that finds
// its line resident makes it the section's most recently used line on a
// set-associative or fully-associative section — the next victim is the
// other line — with no hit counted, no message sent and no clock advance.
// A direct-mapped section, which has no victim choice, ends exactly as it
// would have without the prefetch.
func TestPrefetchHitRefreshesRecency(t *testing.T) {
	const a, b, c = 0, 2, 4 // items elements on lines 0, 1 and 2 (two per 128-byte line)
	for _, st := range []cache.Structure{cache.Direct, cache.SetAssoc, cache.FullAssoc} {
		for _, batched := range []bool{false, true} {
			// resident reports, after a and b are read in that order (a
			// the least recent), a prefetch of a if prefetch is set and a
			// read of c, whether a and b are still resident.
			resident := func(prefetch bool) (bool, bool) {
				r, clk := mkRuntime(t, func(cfg *Config) {
					cfg.Sections[0].Cache = cache.Config{Name: "items", Structure: st, Ways: 2, LineBytes: 128, SizeBytes: 256}
				})
				buf := make([]byte, 8)
				for _, e := range []int64{a, b} {
					if err := r.Access(clk, "items", e, fld(0, 8), buf, false, AccessOpts{}); err != nil {
						t.Fatal(err)
					}
				}
				if prefetch {
					r.Fence(clk)
					stats, pf, msgs, now := r.SectionStats(0), r.SectionPrefetchStats(0), r.NetStats().Ops, clk.Now()
					var err error
					if batched {
						err = r.PrefetchBatch(clk, []BatchEntry{{Obj: "items", Elem: a, Field: fld(0, 8)}})
					} else {
						err = r.Prefetch(clk, "items", a, fld(0, 8))
					}
					if err != nil {
						t.Fatal(err)
					}
					switch {
					case r.SectionStats(0) != stats:
						t.Errorf("%v, batched %v: section stats %+v, want %+v", st, batched, r.SectionStats(0), stats)
					case r.SectionPrefetchStats(0) != pf:
						t.Errorf("%v, batched %v: prefetch stats %+v, want %+v", st, batched, r.SectionPrefetchStats(0), pf)
					case r.NetStats().Ops != msgs:
						t.Errorf("%v, batched %v: %d transport ops, want %d", st, batched, r.NetStats().Ops, msgs)
					case clk.Now() != now:
						t.Errorf("%v, batched %v: clock %v, want %v", st, batched, clk.Now(), now)
					}
				}
				if err := r.Access(clk, "items", c, fld(0, 8), buf, false, AccessOpts{}); err != nil {
					t.Fatal(err)
				}
				s := r.secs[0]
				_, hasA := s.sec.Peek(r.objs["items"].farBase + a*64)
				_, hasB := s.sec.Peek(r.objs["items"].farBase + b*64)
				return hasA, hasB
			}
			a0, b0 := resident(false)
			a1, b1 := resident(true)
			switch st {
			case cache.Direct:
				if a1 != a0 || b1 != b0 {
					t.Errorf("direct, batched %v: the prefetch changed the outcome: a %v b %v, without it a %v b %v", batched, a1, b1, a0, b0)
				}
			default:
				if a0 || !b0 {
					t.Errorf("%v: without the prefetch a (LRU) should be the victim: a %v b %v", st, a0, b0)
				}
				if !a1 || b1 {
					t.Errorf("%v, batched %v: the prefetched line should be MRU and b the victim: a %v b %v", st, batched, a1, b1)
				}
			}
		}
	}
}
