package rt

import (
	"bytes"
	"math/rand"
	"testing"

	"mira/internal/cache"
	"mira/internal/prefetch"
)

// spanSection places items (64 B elements: key, val, pad) in a section that
// caches only the 16 B key+val span of each element: 16 B lines one 64 B
// element apart, as the planner configures an indirect section whose scope
// reads key and val.
func spanSection(ways, lines int, wbq int) func(*Config) {
	return func(c *Config) {
		c.Sections[0].Cache = cache.Config{Name: "items", Structure: cache.SetAssoc, Ways: ways,
			LineBytes: 16, Stride: 64, SizeBytes: int64(lines) * 16}
		c.WritebackQueueLines = wbq
	}
}

// TestStridedSpanSectionMatchesOracle drives a seeded stream of reads,
// writes, prefetches, gathers, eviction hints and flushes through a small,
// dirty strided span section — with the write-back queue on and off — and
// checks every read, and the far image after FlushAll, against a plain byte
// array. Accesses to pad, outside the span, take lines of the same section
// at other offsets of the element.
func TestStridedSpanSectionMatchesOracle(t *testing.T) {
	for _, wbq := range []int{0, -1} {
		r, clk := mkRuntime(t, spanSection(4, 16, wbq))
		const n, eb = 128, 64
		oracle := make([]byte, n*eb)
		for i := range oracle {
			oracle[i] = byte(i*7 + 3)
		}
		if err := r.InitObject("items", oracle); err != nil {
			t.Fatal(err)
		}
		fields := []struct{ off, size int }{{0, 8}, {8, 8}, {0, 16}, {16, 48}, {20, 8}}
		rng := rand.New(rand.NewSource(7))
		buf := make([]byte, 64)
		for step := 0; step < 4000; step++ {
			e := int64(rng.Intn(n))
			f := fields[rng.Intn(len(fields))]
			at := int(e)*eb + f.off
			switch op := rng.Intn(10); {
			case op < 4:
				if err := r.Access(clk, "items", e, fld(f.off, f.size), buf[:f.size], false, AccessOpts{}); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(buf[:f.size], oracle[at:at+f.size]) {
					t.Fatalf("wbq %d, step %d: items[%d]+%d reads %x, want %x", wbq, step, e, f.off, buf[:f.size], oracle[at:at+f.size])
				}
			case op < 8:
				rng.Read(buf[:f.size])
				if err := r.Access(clk, "items", e, fld(f.off, f.size), buf[:f.size], true, AccessOpts{}); err != nil {
					t.Fatal(err)
				}
				copy(oracle[at:], buf[:f.size])
			case op == 8:
				if err := r.Prefetch(clk, "items", e, fld(0, 8)); err != nil {
					t.Fatal(err)
				}
				entries := []BatchEntry{{Obj: "items", Elem: (e + 1) % n, Field: fld(8, 8)}, {Obj: "items", Elem: (e + 5) % n, Field: fld(0, 8)}}
				if err := r.PrefetchBatch(clk, entries); err != nil {
					t.Fatal(err)
				}
			default:
				if err := r.EvictHint(clk, "items", e); err != nil {
					t.Fatal(err)
				}
				if rng.Intn(8) == 0 {
					if err := r.FlushObject(clk, "items"); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		if err := r.FlushAll(clk); err != nil {
			t.Fatal(err)
		}
		got, err := r.DumpObject("items")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, oracle) {
			t.Fatalf("wbq %d: far image differs from the oracle after FlushAll", wbq)
		}
		if st := r.SectionStats(0); st.Writebacks == 0 || st.Evictions == 0 {
			t.Fatalf("wbq %d: the section never wrote a dirty victim back: %+v", wbq, st)
		}
	}
}

// TestStridedSectionPolicyStepsByElement: on a strided section a zoo policy
// works in elements. Readahead's "next unit" after a miss on element i's span
// is element i+1's span, not the padding after the span.
func TestStridedSectionPolicyStepsByElement(t *testing.T) {
	r, clk := mkRuntime(t, spanSection(4, 64, 0))
	if err := r.InstallSectionPolicy(0, prefetch.Readahead{N: 2}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	if err := r.Access(clk, "items", 10, fld(8, 8), buf, false, AccessOpts{}); err != nil {
		t.Fatal(err)
	}
	s := r.secs[0]
	o := r.objs["items"]
	for e := uint64(11); e <= 12; e++ {
		if _, ok := s.sec.Peek(o.farBase + e*64); !ok {
			t.Errorf("element %d's span was not prefetched", e)
		}
	}
	if _, ok := s.sec.Peek(o.farBase + 10*64 + 16); ok {
		t.Error("the padding after element 10's span was prefetched")
	}
	if sec, unit, ok := r.LineUnit("items", 11); !ok || sec != 0 || unit != int64(o.farBase/64)+11 {
		t.Errorf("LineUnit(items, 11) = %d, %d, %v: want one unit per element", sec, unit, ok)
	}
}
