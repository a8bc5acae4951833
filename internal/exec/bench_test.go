package exec

import (
	"encoding/binary"
	"testing"

	"mira/internal/ir"
	"mira/internal/profile"
	"mira/internal/sim"
)

// scanProgram is seqscan's shape: two field loads, a little arithmetic and a
// store per record, an accumulator carried across the loop.
func scanProgram(n int64) *ir.Program { return buildScan(n, false) }

// guardedScanProgram is scanProgram planned: each iteration also tests the
// three guards codegen puts around a scan's hints (codegen.go's guarded,
// priming and eviction blocks) — a priming gather when i == start, a batch
// prefetch when (i+d) % le == 0 and an eviction hint when
// i >= lag && (i-lag) % le == 0 — so most iterations evaluate three
// conditions and take no branch.
func guardedScanProgram(n int64) *ir.Program { return buildScan(n, true) }

func buildScan(n int64, guards bool) *ir.Program {
	const d, lag, le = 32, 8, 4 // 64-byte records, 256-byte lines
	b := ir.NewBuilder("scan")
	b.Object("recs", 64, n, ir.F("key", 0, 8), ir.F("val", 8, 8))
	b.IntArray("result", 1)
	fb := b.Func("scan")
	acc := fb.Var(ir.C(0))
	fb.Loop(ir.C(0), ir.C(n), ir.C(1), func(i ir.Expr) {
		if guards {
			fb.If(ir.Eq(i, ir.C(0)), func() {
				var entries []ir.PrefetchRef
				for k := int64(0); k < d/le+2; k++ {
					entries = append(entries, ir.PrefetchRef{Obj: "recs", Index: ir.Add(i, ir.C(k*le)), Field: "key"})
				}
				fb.BatchPrefetch(entries...)
			}, nil)
			fb.If(ir.Eq(ir.Mod(ir.Add(i, ir.C(d)), ir.C(le)), ir.C(0)), func() {
				fb.BatchPrefetch(ir.PrefetchRef{Obj: "recs", Index: ir.Add(i, ir.C(d)), Field: "key"})
			}, nil)
		}
		k := fb.Load("recs", i, "key")
		v := fb.Load("recs", i, "val")
		nv := fb.Let(ir.Add(v, ir.Mul(k, ir.C(3))))
		fb.Store("recs", i, "val", nv)
		fb.Set(acc, ir.Add(ir.R(acc.ID), nv))
		if guards {
			fb.If(ir.And(ir.Ge(i, ir.C(lag)), ir.Eq(ir.Mod(ir.Sub(i, ir.C(lag)), ir.C(le)), ir.C(0))), func() {
				fb.Evict("recs", ir.Sub(i, ir.C(lag)))
			}, nil)
		}
	})
	fb.Store("result", ir.C(0), "", ir.R(acc.ID))
	fb.Return(ir.R(acc.ID))
	b.SetEntry("scan")
	return b.MustProgram()
}

// chaseProgram is an indirect load chain: the next index comes out of the
// element just loaded.
func chaseProgram(n int64) *ir.Program {
	b := ir.NewBuilder("chase")
	b.IntArray("next", n)
	fb := b.Func("chase")
	cur := fb.Var(ir.C(0))
	fb.Loop(ir.C(0), ir.C(n), ir.C(1), func(ir.Expr) {
		fb.Set(cur, fb.Load("next", ir.R(cur.ID), ""))
	})
	fb.Return(ir.R(cur.ID))
	b.SetEntry("chase")
	return b.MustProgram()
}

// chaseData is one cycle through all n elements with a large odd stride.
func chaseData(n int64) []byte {
	data := make([]byte, n*8)
	for i := int64(0); i < n; i++ {
		binary.LittleEndian.PutUint64(data[i*8:], uint64((i+1237)%n))
	}
	return data
}

// benchInterpreters runs p (whole program per iteration, section warm after
// the first) under both interpreters, with and without a collector: the
// resolved/reference ratio is what the resolve step buys on this host.
func benchInterpreters(b *testing.B, p *ir.Program, init map[string][]byte) {
	type runner interface {
		Run(clk *sim.Clock) (Value, error)
	}
	for _, interp := range []string{"resolved", "reference"} {
		for _, profiled := range []bool{false, true} {
			name := interp
			if profiled {
				name += "+profile"
			}
			b.Run(name, func(b *testing.B) {
				r := rtBackend(b, p)
				for obj, data := range init {
					if err := r.InitObject(obj, data); err != nil {
						b.Fatal(err)
					}
				}
				var opt Options
				if profiled {
					opt.Collector = profile.NewCollector()
				}
				var ex runner
				var err error
				if interp == "resolved" {
					ex, err = New(p, r, opt)
				} else {
					ex, err = newRef(p, r, opt)
				}
				if err != nil {
					b.Fatal(err)
				}
				clk := sim.NewClock(0)
				if _, err := ex.Run(clk); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := ex.Run(clk); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkExecScan(b *testing.B) {
	benchInterpreters(b, scanProgram(4096), nil)
}

func BenchmarkExecGuardedScan(b *testing.B) {
	benchInterpreters(b, guardedScanProgram(4096), nil)
}

func BenchmarkExecChase(b *testing.B) {
	const n = 16384
	benchInterpreters(b, chaseProgram(n), map[string][]byte{"next": chaseData(n)})
}
