package exec

import (
	"math"
	"testing"

	"mira/internal/ir"
	"mira/internal/sim"
)

// exprDecoder turns fuzz bytes into an expression over three registers (r0
// and r1 hold integers, r2 a float), a bound parameter p, an unbound one q,
// integer and float constants (zero, the extremes and the non-finite values
// among them) and every BinOp and UnOp, plus one of each past the last. Input
// that runs out reads as zeros, which decode to the register r0.
type exprDecoder struct{ data []byte }

var (
	fuzzInts   = []int64{0, 1, -1, 2, 3, 4, 8, 64, -7, math.MinInt64, math.MaxInt64}
	fuzzFloats = []float64{0, math.Copysign(0, -1), 0.5, -1.5, 3, 1e300, math.NaN(), math.Inf(1), math.Inf(-1), 1 << 63}
)

func (d *exprDecoder) next() byte {
	if len(d.data) == 0 {
		return 0
	}
	b := d.data[0]
	d.data = d.data[1:]
	return b
}

// expr decodes one expression at most depth operators deep. The first byte
// picks: 0–8 a leaf (r0, r1, r2, p, q, an integer constant, a float
// constant, integer zero, float zero), 9–13 a binary operator, 14–15 a unary
// one; the operator, and a constant's value, come from the next byte.
func (d *exprDecoder) expr(depth int) ir.Expr {
	k := d.next() % 16
	if depth == 0 {
		k %= 9
	}
	switch k {
	case 0, 1, 2:
		return ir.R(int(k))
	case 3:
		return ir.P("p")
	case 4:
		return ir.P("q")
	case 5:
		v := d.next()
		if int(v) < len(fuzzInts) {
			return ir.C(fuzzInts[v])
		}
		return ir.C(int64(int8(v)))
	case 6:
		v := d.next()
		if int(v) < len(fuzzFloats) {
			return ir.CF(fuzzFloats[v])
		}
		return ir.CF(float64(int8(v)) / 4)
	case 7:
		return ir.C(0)
	case 8:
		return ir.CF(0)
	case 14, 15:
		op := ir.UnOp(d.next() % uint8(ir.OpAbs+2))
		return &ir.Un{Op: op, A: d.expr(depth - 1)}
	default:
		op := ir.BinOp(d.next() % uint8(ir.OpMax+2))
		a := d.expr(depth - 1)
		return &ir.Bin{Op: op, A: a, B: d.expr(depth - 1)}
	}
}

// FuzzExprMatchesReference compiles a decoded expression and evaluates it
// beside the tree walk it replaced (refExecutor.eval): the same Value, float
// bits included, the same error text and the same clock. The seed corpus
// holds both of codegen's line-boundary guards, a float left of %, x / 0 and
// MinInt64 / -1.
func FuzzExprMatchesReference(f *testing.F) {
	f.Add(int64(5), int64(-3), 2.5, int64(7), []byte{9, 0, 0, 5, 4})
	f.Fuzz(func(t *testing.T, i0, i1 int64, f0 float64, p int64, data []byte) {
		x := (&exprDecoder{data: data}).expr(5)
		fn := &ir.Func{Name: "f", Params: []string{"p"}, NumRegs: 3}
		regs := []Value{IntV(i0), IntV(i1), FloatV(f0)}
		const op = 3 // not 1: a charge of the wrong multiple shows

		ref := &refExecutor{opt: Options{ComputeOp: op}}
		refClk := sim.NewClock(0)
		want, wantErr := ref.eval(refClk, &refFrame{fn: fn, regs: regs}, map[string]Value{"p": IntV(p)}, x)

		clk := sim.NewClock(0)
		got, gotErr := (&table{}).expr(fn, x)(&frame{clk: clk, opCost: op, regs: regs, args: []Value{IntV(p)}})

		if errText(gotErr) != errText(wantErr) {
			t.Fatalf("%s: error %q, tree walk %q", ir.ExprString(x), errText(gotErr), errText(wantErr))
		}
		if got.Float != want.Float || got.I != want.I || math.Float64bits(got.F) != math.Float64bits(want.F) {
			t.Fatalf("%s = %#v, tree walk %#v", ir.ExprString(x), got, want)
		}
		if clk.Now() != refClk.Now() {
			t.Fatalf("%s charged %v, tree walk %v", ir.ExprString(x), clk.Now(), refClk.Now())
		}
	})
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
