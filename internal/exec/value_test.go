package exec

import (
	"math"
	"testing"
	"testing/quick"

	"mira/internal/ir"
)

func TestValueConversions(t *testing.T) {
	if IntV(5).AsFloat() != 5.0 || FloatV(2.75).AsInt() != 2 {
		t.Fatal("conversions wrong")
	}
	if !IntV(1).Truthy() || IntV(0).Truthy() || !FloatV(0.5).Truthy() || FloatV(0).Truthy() {
		t.Fatal("truthiness wrong")
	}
	if IntV(7).String() != "7" || FloatV(1.5).String() != "1.5" {
		t.Fatal("String wrong")
	}
}

// Property: int fields of every width round-trip through encode/decode.
func TestIntFieldRoundtripProperty(t *testing.T) {
	widths := []int{1, 2, 4, 8}
	f := func(v int64, wPick uint8) bool {
		w := widths[int(wPick)%len(widths)]
		// Clamp to the width's range (sign-extension must survive).
		switch w {
		case 1:
			v = int64(int8(v))
		case 2:
			v = int64(int16(v))
		case 4:
			v = int64(int32(v))
		}
		c, err := codecOf(ir.Field{Bytes: w})
		if err != nil {
			return false
		}
		buf := make([]byte, w)
		c.encode(IntV(v), buf)
		out := c.decode(buf)
		return out.AsInt() == v && !out.Float
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: float64 fields round-trip bit-exactly (including NaN bits).
func TestFloatFieldRoundtripProperty(t *testing.T) {
	c, err := codecOf(ir.Field{Bytes: 8, Float: true})
	if err != nil {
		t.Fatal(err)
	}
	f := func(bits uint64) bool {
		v := math.Float64frombits(bits)
		buf := make([]byte, 8)
		c.encode(FloatV(v), buf)
		out := c.decode(buf)
		return math.Float64bits(out.AsFloat()) == bits && out.Float
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFieldWidthErrors(t *testing.T) {
	if _, err := codecOf(ir.Field{Bytes: 3}); err == nil {
		t.Fatal("3-byte int field accepted")
	}
	if _, err := codecOf(ir.Field{Bytes: 4, Float: true}); err == nil {
		t.Fatal("4-byte float field accepted")
	}
	if _, err := codecOf(ir.Field{Bytes: 16}); err == nil {
		t.Fatal("16-byte int field accepted")
	}
}

// Property: the interpreter's integer arithmetic matches Go's.
func TestIntArithmeticProperty(t *testing.T) {
	ops := []ir.BinOp{ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpMin, ir.OpMax}
	f := func(a, b int64, opPick uint8) bool {
		op := ops[int(opPick)%len(ops)]
		got, err := applyBin(op, IntV(a), IntV(b))
		if err != nil {
			return false
		}
		var want int64
		switch op {
		case ir.OpAdd:
			want = a + b
		case ir.OpSub:
			want = a - b
		case ir.OpMul:
			want = a * b
		case ir.OpMin:
			want = a
			if b < a {
				want = b
			}
		case ir.OpMax:
			want = a
			if b > a {
				want = b
			}
		}
		return got.AsInt() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: comparisons agree with Go across int and mixed int/float
// operands.
func TestComparisonProperty(t *testing.T) {
	f := func(a, b int32, useFloat bool) bool {
		av, bv := Value(IntV(int64(a))), Value(IntV(int64(b)))
		if useFloat {
			av = FloatV(float64(a))
		}
		lt, _ := applyBin(ir.OpLt, av, bv)
		ge, _ := applyBin(ir.OpGe, av, bv)
		eq, _ := applyBin(ir.OpEq, av, bv)
		return (lt.AsInt() == 1) == (a < b) &&
			(ge.AsInt() == 1) == (a >= b) &&
			(eq.AsInt() == 1) == (a == b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUnaryOps(t *testing.T) {
	if v, _ := applyUn(ir.OpNeg, IntV(5)); v.AsInt() != -5 {
		t.Fatal("neg int")
	}
	if v, _ := applyUn(ir.OpNeg, FloatV(2.5)); v.AsFloat() != -2.5 {
		t.Fatal("neg float")
	}
	if v, _ := applyUn(ir.OpNot, IntV(0)); v.AsInt() != 1 {
		t.Fatal("not")
	}
	if v, _ := applyUn(ir.OpAbs, IntV(-3)); v.AsInt() != 3 {
		t.Fatal("abs int")
	}
	if v, _ := applyUn(ir.OpAbs, FloatV(-3.5)); v.AsFloat() != 3.5 {
		t.Fatal("abs float")
	}
}

func TestModByZeroErrors(t *testing.T) {
	if _, err := applyBin(ir.OpMod, IntV(5), IntV(0)); err == nil {
		t.Fatal("mod by zero accepted")
	}
}

func TestFloatDivByZeroIsInf(t *testing.T) {
	v, err := applyBin(ir.OpDiv, FloatV(1), FloatV(0))
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(v.AsFloat(), 1) {
		t.Fatalf("1.0/0.0 = %v", v)
	}
}
