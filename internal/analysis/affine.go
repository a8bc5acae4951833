// Package analysis implements Mira's static program analyses (§4.2,
// §5.2.2): scalar-evolution-style classification of index expressions over
// loop induction variables, per-object access summaries (pattern,
// granularity, read/write, field sets), lifetime analysis, loop-fusion /
// batching detection, and the offload cost model. The planner combines
// these results with profiling data to configure cache sections, and
// codegen uses them to rewrite the program.
//
// The analysis is sound in the paper's sense: it trades completeness for
// correctness — anything it cannot prove is classified Random/unknown and
// simply misses optimizations.
package analysis

import (
	"mira/internal/ir"
)

// affine is a linear form c + Σ coef[iv]·iv over loop induction-variable
// registers. ok=false means the expression is not affine.
type affine struct {
	c    int64
	coef map[int]int64
	ok   bool
	// via records the object whose loaded value feeds the expression
	// when affinity fails through a load-defined register — the
	// indirect-access signal (B[A[i]], §1).
	via string
}

func affConst(c int64) affine { return affine{c: c, ok: true} }

func affIV(reg int) affine {
	return affine{coef: map[int]int64{reg: 1}, ok: true}
}

func affFail(via string) affine { return affine{via: via} }

func (a affine) add(b affine, sign int64) affine {
	if !a.ok || !b.ok {
		return affFail(firstVia(a, b))
	}
	out := affine{c: a.c + sign*b.c, coef: map[int]int64{}, ok: true}
	for k, v := range a.coef {
		out.coef[k] += v
	}
	for k, v := range b.coef {
		out.coef[k] += sign * v
	}
	return out
}

func (a affine) mul(b affine) affine {
	if !a.ok || !b.ok {
		return affFail(firstVia(a, b))
	}
	// Only const * affine stays affine.
	if len(a.coef) == 0 {
		out := affine{c: a.c * b.c, coef: map[int]int64{}, ok: true}
		for k, v := range b.coef {
			out.coef[k] = v * a.c
		}
		return out
	}
	if len(b.coef) == 0 {
		return b.mul(a)
	}
	return affFail("")
}

func firstVia(a, b affine) string {
	if a.via != "" {
		return a.via
	}
	return b.via
}

// isConst reports whether the form is a plain constant.
func (a affine) isConst() bool { return a.ok && len(a.coef) == 0 }

// regKind classifies what a register holds at an access site.
type regKind int

const (
	regUnknown regKind = iota
	regIV              // loop induction variable
	regAffine          // an affine expression over IVs
	regLoaded          // value loaded from an object (indirect source)
)

// regInfo is the dataflow fact for one register (forward SSA-style
// analysis, §5.2.1).
type regInfo struct {
	kind regKind
	aff  affine // valid when kind == regAffine
	obj  string // valid when kind == regLoaded
}

// env tracks register facts and the enclosing loop nest during a walk.
type env struct {
	regs  map[int]regInfo
	loops []*ir.Loop // outermost..innermost
}

func newEnv() *env { return &env{regs: make(map[int]regInfo)} }

// evalAffine reduces an expression to affine form under the current
// register facts. Params are treated as symbolic non-IV values: a
// param-only expression is loop-invariant, so it reduces to "affine with no
// IV coefficients but unknown constant" — we model that as affine constant
// 0 with ok=true only when the expression is *entirely* constant; params
// make the form non-const but still IV-free, which we encode as an affine
// with a sentinel coefficient on register -1.
func (e *env) evalAffine(x ir.Expr) affine {
	switch t := x.(type) {
	case *ir.Const:
		return affConst(t.I)
	case *ir.ConstF:
		return affFail("")
	case *ir.Param:
		// Loop-invariant symbolic value.
		return affine{coef: map[int]int64{paramReg: 1}, ok: true}
	case *ir.Reg:
		info := e.regs[t.ID]
		switch info.kind {
		case regIV:
			return affIV(t.ID)
		case regAffine:
			return info.aff
		case regLoaded:
			return affFail(info.obj)
		default:
			return affFail("")
		}
	case *ir.Bin:
		a := e.evalAffine(t.A)
		b := e.evalAffine(t.B)
		switch t.Op {
		case ir.OpAdd:
			return a.add(b, 1)
		case ir.OpSub:
			return a.add(b, -1)
		case ir.OpMul:
			return a.mul(b)
		case ir.OpDiv, ir.OpMod:
			// Division by a constant of a pure constant stays
			// constant; anything else is non-affine.
			if a.isConst() && b.isConst() && b.c != 0 {
				if t.Op == ir.OpDiv {
					return affConst(a.c / b.c)
				}
				return affConst(a.c % b.c)
			}
			return affFail(firstVia(a, b))
		default:
			return affFail(firstVia(a, b))
		}
	case *ir.Un:
		a := e.evalAffine(t.A)
		if t.Op == ir.OpNeg && a.ok {
			return affConst(0).add(a, -1)
		}
		return affFail(a.via)
	default:
		return affFail("")
	}
}

// paramReg is the sentinel register id representing "some loop-invariant
// symbolic value" in affine coefficient maps.
const paramReg = -1
