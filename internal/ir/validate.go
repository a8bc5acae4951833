package ir

import "fmt"

// Validate checks a program's internal consistency: entry resolution,
// object/field references, register bounds, call targets, parameter
// references, and field layout. The analyses and the executor assume a
// validated program.
func Validate(p *Program) error {
	if p.Name == "" {
		return fmt.Errorf("ir: program has no name")
	}
	if _, err := p.EntryFunc(); err != nil {
		return err
	}
	seenObj := map[string]bool{}
	for _, o := range p.Objects {
		if o.Name == "" {
			return fmt.Errorf("ir: %s: object with empty name", p.Name)
		}
		if seenObj[o.Name] {
			return fmt.Errorf("ir: %s: duplicate object %q", p.Name, o.Name)
		}
		seenObj[o.Name] = true
		if o.ElemBytes <= 0 {
			return fmt.Errorf("ir: %s: object %q: ElemBytes %d", p.Name, o.Name, o.ElemBytes)
		}
		if o.Count <= 0 {
			return fmt.Errorf("ir: %s: object %q: Count %d", p.Name, o.Name, o.Count)
		}
		seenField := map[string]bool{}
		for _, f := range o.Fields {
			if f.Name == "" {
				return fmt.Errorf("ir: %s: object %q: field with empty name", p.Name, o.Name)
			}
			if seenField[f.Name] {
				return fmt.Errorf("ir: %s: object %q: duplicate field %q", p.Name, o.Name, f.Name)
			}
			seenField[f.Name] = true
			if f.Offset < 0 || f.Bytes <= 0 || f.Offset+f.Bytes > o.ElemBytes {
				return fmt.Errorf("ir: %s: object %q: field %q [%d,+%d) outside element of %d bytes",
					p.Name, o.Name, f.Name, f.Offset, f.Bytes, o.ElemBytes)
			}
		}
	}
	seenFunc := map[string]bool{}
	for _, f := range p.Funcs {
		if seenFunc[f.Name] {
			return fmt.Errorf("ir: %s: duplicate function %q", p.Name, f.Name)
		}
		seenFunc[f.Name] = true
	}
	for _, f := range p.Funcs {
		v := &validator{p: p, f: f}
		if err := v.block(f.Body); err != nil {
			return fmt.Errorf("ir: %s: func %q: %w", p.Name, f.Name, err)
		}
	}
	return nil
}

type validator struct {
	p *Program
	f *Func
}

func (v *validator) block(body []Stmt) error {
	for _, s := range body {
		if err := v.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (v *validator) stmt(s Stmt) error {
	switch st := s.(type) {
	case *Loop:
		if err := v.reg(st.IVReg); err != nil {
			return err
		}
		for _, e := range []Expr{st.Start, st.End, st.Step} {
			if err := v.expr(e); err != nil {
				return err
			}
		}
		return v.block(st.Body)
	case *Load:
		if err := v.reg(st.Dst); err != nil {
			return err
		}
		if err := v.access(st.Obj, st.Field); err != nil {
			return err
		}
		return v.expr(st.Index)
	case *Store:
		if err := v.access(st.Obj, st.Field); err != nil {
			return err
		}
		if err := v.expr(st.Index); err != nil {
			return err
		}
		return v.expr(st.Val)
	case *Assign:
		if err := v.reg(st.Dst); err != nil {
			return err
		}
		return v.expr(st.Val)
	case *If:
		if err := v.expr(st.Cond); err != nil {
			return err
		}
		if err := v.block(st.Then); err != nil {
			return err
		}
		return v.block(st.Else)
	case *Call:
		callee, ok := v.p.Func(st.Callee)
		if !ok {
			return fmt.Errorf("call of undefined function %q", st.Callee)
		}
		if len(st.Args) != len(callee.Params) {
			return fmt.Errorf("call of %q with %d args, want %d", st.Callee, len(st.Args), len(callee.Params))
		}
		if st.Dst >= 0 {
			if err := v.reg(st.Dst); err != nil {
				return err
			}
		}
		for _, a := range st.Args {
			if err := v.expr(a); err != nil {
				return err
			}
		}
		return nil
	case *Return:
		if st.Val != nil {
			return v.expr(st.Val)
		}
		return nil
	case *Prefetch:
		if err := v.access(st.Obj, st.Field); err != nil {
			return err
		}
		return v.expr(st.Index)
	case *BatchPrefetch:
		for _, e := range st.Entries {
			if err := v.access(e.Obj, e.Field); err != nil {
				return err
			}
			if err := v.expr(e.Index); err != nil {
				return err
			}
		}
		return nil
	case *GatherPrefetch:
		if len(st.Chains) == 0 {
			return fmt.Errorf("gather prefetch over %q has no chains", st.Src)
		}
		for _, c := range st.Chains {
			if err := v.access(st.Src, c.SrcField); err != nil {
				return err
			}
			if err := v.access(c.Target, ""); err != nil {
				return err
			}
		}
		if err := v.expr(st.Lo); err != nil {
			return err
		}
		return v.expr(st.Hi)
	case *Evict:
		if err := v.access(st.Obj, ""); err != nil {
			return err
		}
		return v.expr(st.Index)
	case *Fence:
		return nil
	case *Release:
		return v.access(st.Obj, "")
	case *Intrinsic:
		if st.Kind != IntrZero && st.A.Obj == "" {
			return fmt.Errorf("intrinsic %v needs a source operand", st.Kind)
		}
		for _, t := range []TensorRef{st.Dst, st.A, st.B} {
			if t.Obj == "" {
				continue // unary intrinsics leave B (and IntrZero A) empty
			}
			o, ok := v.p.Object(t.Obj)
			if !ok {
				return fmt.Errorf("intrinsic %v references undefined object %q", st.Kind, t.Obj)
			}
			if o.ElemBytes != 8 || !o.Float {
				return fmt.Errorf("intrinsic %v needs float64 object, got %q (%dB, float=%v)",
					st.Kind, t.Obj, o.ElemBytes, o.Float)
			}
			if t.Rows <= 0 || t.Cols <= 0 {
				return fmt.Errorf("intrinsic %v: tensor over %q has dims %dx%d", st.Kind, t.Obj, t.Rows, t.Cols)
			}
			if err := v.expr(t.Off); err != nil {
				return err
			}
		}
		for _, r := range st.Ahead {
			o, ok := v.p.Object(r.Obj)
			if !ok {
				return fmt.Errorf("intrinsic %v prefetches undefined object %q ahead", st.Kind, r.Obj)
			}
			if o.Local || r.Elems <= 0 || r.Step <= 0 {
				return fmt.Errorf("intrinsic %v: range ahead over %q (local %v) has %d elements in steps of %d",
					st.Kind, r.Obj, o.Local, r.Elems, r.Step)
			}
			if err := v.expr(r.Off); err != nil {
				return err
			}
		}
		switch st.Kind {
		case IntrMatMul:
			if st.A.Cols != st.B.Rows || st.Dst.Rows != st.A.Rows || st.Dst.Cols != st.B.Cols {
				return fmt.Errorf("matmul dims mismatch: dst %dx%d, a %dx%d, b %dx%d",
					st.Dst.Rows, st.Dst.Cols, st.A.Rows, st.A.Cols, st.B.Rows, st.B.Cols)
			}
		case IntrMatMulT:
			if st.A.Cols != st.B.Cols || st.Dst.Rows != st.A.Rows || st.Dst.Cols != st.B.Rows {
				return fmt.Errorf("matmul_t dims mismatch: dst %dx%d, a %dx%d, bT %dx%d",
					st.Dst.Rows, st.Dst.Cols, st.A.Rows, st.A.Cols, st.B.Cols, st.B.Rows)
			}
		}
		return nil
	default:
		return fmt.Errorf("unknown statement %T", s)
	}
}

func (v *validator) access(obj, field string) error {
	o, ok := v.p.Object(obj)
	if !ok {
		return fmt.Errorf("access to undefined object %q", obj)
	}
	if _, ok := o.FieldByName(field); !ok {
		return fmt.Errorf("object %q has no field %q", obj, field)
	}
	return nil
}

func (v *validator) reg(id int) error {
	if id < 0 || id >= v.f.NumRegs {
		return fmt.Errorf("register %%%d out of range [0,%d)", id, v.f.NumRegs)
	}
	return nil
}

func (v *validator) expr(e Expr) error {
	if e == nil {
		return fmt.Errorf("nil expression")
	}
	var err error
	WalkExpr(e, func(x Expr) bool {
		switch t := x.(type) {
		case *Reg:
			if e2 := v.reg(t.ID); e2 != nil && err == nil {
				err = e2
			}
		case *Param:
			found := false
			for _, pn := range v.f.Params {
				if pn == t.Name {
					found = true
					break
				}
			}
			if !found && err == nil {
				err = fmt.Errorf("reference to undefined parameter %q", t.Name)
			}
		}
		return true
	})
	return err
}
