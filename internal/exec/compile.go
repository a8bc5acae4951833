package exec

import (
	"fmt"
	"slices"

	"mira/internal/ir"
	"mira/internal/sim"
)

// This file compiles a resolved expression into Go closures, once, when the
// statement holding it is resolved: nothing walks an expression tree at run
// time. What an expression costs and computes is the tree walk's
// (reference_test.go's eval): one ComputeOp per operator, none folded away,
// every shape without a specialisation below going through applyBin/applyUn.
//
//   - An expression no operator of which can fail — no integer / or %, no
//     operator applyBin or applyUn does not define, no unbound parameter — is
//     a valueFn plus its operator count, charged in one Advance: nothing reads
//     the clock inside an expression.
//   - Any other charges operators in the order it reaches them, left operand
//     before right, so one that fails half way has charged exactly the
//     operators it reached.
//   - What an operator costs is read from the frame when the closure runs,
//     never captured: an offload child shares the table but runs with
//     ComputeOp scaled by its far node's slowdown.

// evalFn is a compiled expression's charging entry point: it charges the
// operators it reaches and returns the value or the error.
type evalFn func(fr *frame) (Value, error)

// valueFn computes an expression that cannot fail, charging nothing.
type valueFn func(fr *frame) Value

// compiled is an expression on its way to an evalFn: val and its operator
// count ops when it cannot fail, run otherwise.
type compiled struct {
	val valueFn
	ops int
	run evalFn
}

// eval charges c's operators and computes it: how a fallible parent reaches
// an operand.
func (c *compiled) eval(fr *frame) (Value, error) {
	if c.run != nil {
		return c.run(fr)
	}
	fr.clk.Advance(fr.opCost * sim.Duration(c.ops))
	return c.val(fr), nil
}

// expr compiles x, an expression in fn's body, to its charging entry point.
// A leaf gets a closure of its own rather than a valueFn behind a charging
// wrapper.
func (t *table) expr(fn *ir.Func, x ir.Expr) evalFn {
	switch x := x.(type) {
	case *ir.Reg:
		r := x.ID
		return func(fr *frame) (Value, error) { return fr.regs[r], nil }
	case *ir.Const:
		i := x.I
		return func(*frame) (Value, error) { return IntV(i), nil }
	case *ir.ConstF:
		f := x.F
		return func(*frame) (Value, error) { return FloatV(f), nil }
	}
	c := compile(fn, x)
	if c.run != nil {
		return c.run
	}
	val, ops := c.val, sim.Duration(c.ops)
	return func(fr *frame) (Value, error) {
		fr.clk.Advance(fr.opCost * ops)
		return val(fr), nil
	}
}

func compile(fn *ir.Func, x ir.Expr) compiled {
	switch x := x.(type) {
	case *ir.Const:
		i := x.I
		return compiled{val: func(*frame) Value { return IntV(i) }}
	case *ir.ConstF:
		f := x.F
		return compiled{val: func(*frame) Value { return FloatV(f) }}
	case *ir.Reg:
		r := x.ID
		return compiled{val: func(fr *frame) Value { return fr.regs[r] }}
	case *ir.Param:
		if i := slices.Index(fn.Params, x.Name); i >= 0 {
			return compiled{val: func(fr *frame) Value { return fr.args[i] }}
		}
		return fails(fmt.Errorf("exec: unbound parameter %q in %q", x.Name, fn.Name))
	case *ir.Bin:
		return compileBin(fn, x)
	case *ir.Un:
		return compileUn(fn, x)
	default:
		return fails(fmt.Errorf("exec: unknown expression %T", x))
	}
}

// fails is a leaf that cannot execute: reaching it returns err.
func fails(err error) compiled {
	return compiled{run: func(*frame) (Value, error) { return Value{}, err }}
}

func compileBin(fn *ir.Func, x *ir.Bin) compiled {
	op := x.Op
	k, constB := x.B.(*ir.Const)
	divByConst := constB && k.I != 0 && (op == ir.OpDiv || op == ir.OpMod)
	if r, ok := x.A.(*ir.Reg); ok {
		var v valueFn
		switch y := x.B.(type) {
		case *ir.Const:
			v = regConst(op, r.ID, y.I)
		case *ir.Reg:
			v = regReg(op, r.ID, y.ID)
		}
		if v != nil {
			return compiled{val: v, ops: 1}
		}
		if divByConst {
			return regDiv(op, r.ID, k.I)
		}
	}
	a := compile(fn, x.A)
	if divByConst && a.run == nil {
		return valDiv(op, a, k.I)
	}
	if constB && a.run != nil {
		// A guard's x == 0 over a modulo: the constant is captured, not called.
		kv := IntV(k.I)
		return compiled{run: func(fr *frame) (Value, error) {
			u, err := a.run(fr)
			if err != nil {
				return Value{}, err
			}
			fr.clk.Advance(fr.opCost)
			return applyBin(op, u, kv)
		}}
	}
	b := compile(fn, x.B)
	if a.run == nil && b.run == nil && infallibleBin(op) {
		av, bv := a.val, b.val
		return compiled{ops: a.ops + b.ops + 1, val: func(fr *frame) Value {
			return binValue(op, av(fr), bv(fr))
		}}
	}
	return compiled{run: func(fr *frame) (Value, error) {
		u, err := a.eval(fr)
		if err != nil {
			return Value{}, err
		}
		v, err := b.eval(fr)
		if err != nil {
			return Value{}, err
		}
		fr.clk.Advance(fr.opCost)
		return applyBin(op, u, v)
	}}
}

func compileUn(fn *ir.Func, x *ir.Un) compiled {
	op := x.Op
	a := compile(fn, x.A)
	if a.run == nil && op >= ir.OpNeg && op <= ir.OpAbs {
		av := a.val
		return compiled{ops: a.ops + 1, val: func(fr *frame) Value {
			v, _ := applyUn(op, av(fr))
			return v
		}}
	}
	return compiled{run: func(fr *frame) (Value, error) {
		v, err := a.eval(fr)
		if err != nil {
			return Value{}, err
		}
		fr.clk.Advance(fr.opCost)
		return applyUn(op, v)
	}}
}

// infallibleBin reports whether applyBin returns no error for op whatever
// the operands: every operator but division and modulo (an integer zero
// divisor; modulo on floats) and any it does not know.
func infallibleBin(op ir.BinOp) bool {
	switch op {
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe,
		ir.OpEq, ir.OpNe, ir.OpAnd, ir.OpOr, ir.OpMin, ir.OpMax:
		return true
	}
	return false
}

// binValue is applyBin for an operator infallibleBin admits.
func binValue(op ir.BinOp, a, b Value) Value {
	v, _ := applyBin(op, a, b)
	return v
}

// regDiv is r / c or r % c for a non-zero integer constant c, the register
// read inline; valDiv is the same over an operand that cannot fail. Both
// charge the operand's operators and this one in one Advance, then divide
// integers inline. A float operand goes to applyBin, which divides it or
// returns modulo's error after the same charge.
func regDiv(op ir.BinOp, r int, c int64) compiled {
	if op == ir.OpMod {
		mask := modMask(c)
		return compiled{run: func(fr *frame) (Value, error) {
			fr.clk.Advance(fr.opCost)
			a := fr.regs[r]
			if a.Float {
				return applyBin(ir.OpMod, a, IntV(c))
			}
			return IntV(rem(a.I, c, mask)), nil
		}}
	}
	return compiled{run: func(fr *frame) (Value, error) {
		fr.clk.Advance(fr.opCost)
		a := fr.regs[r]
		if a.Float {
			return applyBin(ir.OpDiv, a, IntV(c))
		}
		return IntV(a.I / c), nil
	}}
}

func valDiv(op ir.BinOp, x compiled, c int64) compiled {
	val, ops := x.val, sim.Duration(x.ops+1)
	if op == ir.OpMod {
		mask := modMask(c)
		return compiled{run: func(fr *frame) (Value, error) {
			fr.clk.Advance(fr.opCost * ops)
			a := val(fr)
			if a.Float {
				return applyBin(ir.OpMod, a, IntV(c))
			}
			return IntV(rem(a.I, c, mask)), nil
		}}
	}
	return compiled{run: func(fr *frame) (Value, error) {
		fr.clk.Advance(fr.opCost * ops)
		a := val(fr)
		if a.Float {
			return applyBin(ir.OpDiv, a, IntV(c))
		}
		return IntV(a.I / c), nil
	}}
}

// modMask is c-1 when c is a positive power of two — a line's element count,
// in codegen's guards — and -1 otherwise.
func modMask(c int64) int64 {
	if c > 0 && c&(c-1) == 0 {
		return c - 1
	}
	return -1
}

// rem is a % c for a non-zero c, as Go's % computes it (the sign of a), by
// masking when modMask found a power of two and dividing otherwise.
func rem(a, c, mask int64) int64 {
	if mask < 0 {
		return a % c
	}
	r := a & mask
	if a < 0 && r != 0 {
		r -= c
	}
	return r
}

// regConst is r ∘ c for an integer constant c and the operators the
// traffic's shapes carry: the register read and the integer arithmetic
// inline, a float register through applyBin. nil for any other operator.
func regConst(op ir.BinOp, r int, c int64) valueFn {
	switch op {
	case ir.OpAdd:
		return func(fr *frame) Value {
			a := fr.regs[r]
			if a.Float {
				return binValue(ir.OpAdd, a, IntV(c))
			}
			return IntV(a.I + c)
		}
	case ir.OpSub:
		return func(fr *frame) Value {
			a := fr.regs[r]
			if a.Float {
				return binValue(ir.OpSub, a, IntV(c))
			}
			return IntV(a.I - c)
		}
	case ir.OpMul:
		return func(fr *frame) Value {
			a := fr.regs[r]
			if a.Float {
				return binValue(ir.OpMul, a, IntV(c))
			}
			return IntV(a.I * c)
		}
	case ir.OpLt:
		return func(fr *frame) Value {
			a := fr.regs[r]
			if a.Float {
				return binValue(ir.OpLt, a, IntV(c))
			}
			return boolV(a.I < c)
		}
	case ir.OpLe:
		return func(fr *frame) Value {
			a := fr.regs[r]
			if a.Float {
				return binValue(ir.OpLe, a, IntV(c))
			}
			return boolV(a.I <= c)
		}
	case ir.OpGt:
		return func(fr *frame) Value {
			a := fr.regs[r]
			if a.Float {
				return binValue(ir.OpGt, a, IntV(c))
			}
			return boolV(a.I > c)
		}
	case ir.OpGe:
		return func(fr *frame) Value {
			a := fr.regs[r]
			if a.Float {
				return binValue(ir.OpGe, a, IntV(c))
			}
			return boolV(a.I >= c)
		}
	case ir.OpEq:
		return func(fr *frame) Value {
			a := fr.regs[r]
			if a.Float {
				return binValue(ir.OpEq, a, IntV(c))
			}
			return boolV(a.I == c)
		}
	case ir.OpNe:
		return func(fr *frame) Value {
			a := fr.regs[r]
			if a.Float {
				return binValue(ir.OpNe, a, IntV(c))
			}
			return boolV(a.I != c)
		}
	}
	return nil
}

// regReg is x ∘ y for two registers, as regConst.
func regReg(op ir.BinOp, x, y int) valueFn {
	switch op {
	case ir.OpAdd:
		return func(fr *frame) Value {
			a, b := fr.regs[x], fr.regs[y]
			if a.Float || b.Float {
				return binValue(ir.OpAdd, a, b)
			}
			return IntV(a.I + b.I)
		}
	case ir.OpSub:
		return func(fr *frame) Value {
			a, b := fr.regs[x], fr.regs[y]
			if a.Float || b.Float {
				return binValue(ir.OpSub, a, b)
			}
			return IntV(a.I - b.I)
		}
	case ir.OpMul:
		return func(fr *frame) Value {
			a, b := fr.regs[x], fr.regs[y]
			if a.Float || b.Float {
				return binValue(ir.OpMul, a, b)
			}
			return IntV(a.I * b.I)
		}
	case ir.OpLt:
		return func(fr *frame) Value {
			a, b := fr.regs[x], fr.regs[y]
			if a.Float || b.Float {
				return binValue(ir.OpLt, a, b)
			}
			return boolV(a.I < b.I)
		}
	case ir.OpLe:
		return func(fr *frame) Value {
			a, b := fr.regs[x], fr.regs[y]
			if a.Float || b.Float {
				return binValue(ir.OpLe, a, b)
			}
			return boolV(a.I <= b.I)
		}
	case ir.OpGt:
		return func(fr *frame) Value {
			a, b := fr.regs[x], fr.regs[y]
			if a.Float || b.Float {
				return binValue(ir.OpGt, a, b)
			}
			return boolV(a.I > b.I)
		}
	case ir.OpGe:
		return func(fr *frame) Value {
			a, b := fr.regs[x], fr.regs[y]
			if a.Float || b.Float {
				return binValue(ir.OpGe, a, b)
			}
			return boolV(a.I >= b.I)
		}
	case ir.OpEq:
		return func(fr *frame) Value {
			a, b := fr.regs[x], fr.regs[y]
			if a.Float || b.Float {
				return binValue(ir.OpEq, a, b)
			}
			return boolV(a.I == b.I)
		}
	case ir.OpNe:
		return func(fr *frame) Value {
			a, b := fr.regs[x], fr.regs[y]
			if a.Float || b.Float {
				return binValue(ir.OpNe, a, b)
			}
			return boolV(a.I != b.I)
		}
	}
	return nil
}
