package ir

// Clone deep-copies a program so codegen can transform it without mutating
// the application's canonical IR (each planner iteration starts from the
// original).
func Clone(p *Program) *Program {
	out := &Program{Name: p.Name, Entry: p.Entry}
	for _, o := range p.Objects {
		oc := *o
		oc.Fields = append([]Field(nil), o.Fields...)
		out.Objects = append(out.Objects, &oc)
	}
	for _, f := range p.Funcs {
		fc := &Func{
			Name:           f.Name,
			Params:         append([]string(nil), f.Params...),
			NumRegs:        f.NumRegs,
			NoSharedWrites: f.NoSharedWrites,
		}
		fc.Body = CloneBlock(f.Body)
		out.Funcs = append(out.Funcs, fc)
	}
	return out
}

// CloneForEntry clones p with a different entry function — the
// multithreaded drivers re-enter a program at its per-thread kernel.
func CloneForEntry(p *Program, entry string) *Program {
	out := Clone(p)
	out.Entry = entry
	return out
}

// CloneBlock deep-copies a statement list.
func CloneBlock(body []Stmt) []Stmt {
	if body == nil {
		return nil
	}
	out := make([]Stmt, len(body))
	for i, s := range body {
		out[i] = CloneStmt(s)
	}
	return out
}

// CloneStmt deep-copies one statement.
func CloneStmt(s Stmt) Stmt {
	switch st := s.(type) {
	case *Loop:
		return &Loop{
			Name:  st.Name,
			IVReg: st.IVReg,
			Start: CloneExpr(st.Start),
			End:   CloneExpr(st.End),
			Step:  CloneExpr(st.Step),
			Body:  CloneBlock(st.Body),
		}
	case *Load:
		return &Load{Dst: st.Dst, Obj: st.Obj, Index: CloneExpr(st.Index), Field: st.Field, Native: st.Native}
	case *Store:
		return &Store{Obj: st.Obj, Index: CloneExpr(st.Index), Field: st.Field, Val: CloneExpr(st.Val), Native: st.Native, NoFetch: st.NoFetch}
	case *Assign:
		return &Assign{Dst: st.Dst, Val: CloneExpr(st.Val)}
	case *If:
		return &If{Cond: CloneExpr(st.Cond), Then: CloneBlock(st.Then), Else: CloneBlock(st.Else)}
	case *Call:
		args := make([]Expr, len(st.Args))
		for i, a := range st.Args {
			args[i] = CloneExpr(a)
		}
		return &Call{Dst: st.Dst, Callee: st.Callee, Args: args, Offload: st.Offload}
	case *Return:
		if st.Val == nil {
			return &Return{}
		}
		return &Return{Val: CloneExpr(st.Val)}
	case *Prefetch:
		return &Prefetch{Obj: st.Obj, Index: CloneExpr(st.Index), Field: st.Field}
	case *BatchPrefetch:
		entries := make([]PrefetchRef, len(st.Entries))
		for i, e := range st.Entries {
			entries[i] = PrefetchRef{Obj: e.Obj, Index: CloneExpr(e.Index), Field: e.Field}
		}
		return &BatchPrefetch{Entries: entries}
	case *GatherPrefetch:
		return &GatherPrefetch{Src: st.Src, Lo: CloneExpr(st.Lo), Hi: CloneExpr(st.Hi),
			Chains: append([]GatherChain(nil), st.Chains...), Native: st.Native}
	case *Evict:
		return &Evict{Obj: st.Obj, Index: CloneExpr(st.Index)}
	case *Fence:
		return &Fence{}
	case *Release:
		return &Release{Obj: st.Obj}
	case *Intrinsic:
		return &Intrinsic{
			Kind:  st.Kind,
			Dst:   cloneTensor(st.Dst),
			A:     cloneTensor(st.A),
			B:     cloneTensor(st.B),
			Ahead: cloneRanges(st.Ahead),
		}
	default:
		panic("ir: CloneStmt of unknown statement")
	}
}

func cloneTensor(t TensorRef) TensorRef {
	out := t
	if t.Off != nil {
		out.Off = CloneExpr(t.Off)
	}
	return out
}

func cloneRanges(rs []PrefetchRange) []PrefetchRange {
	if rs == nil {
		return nil
	}
	out := make([]PrefetchRange, len(rs))
	for i, r := range rs {
		out[i] = r
		out[i].Off = CloneExpr(r.Off)
	}
	return out
}

// CloneExpr deep-copies an expression.
func CloneExpr(e Expr) Expr {
	switch x := e.(type) {
	case nil:
		return nil
	case *Const:
		c := *x
		return &c
	case *ConstF:
		c := *x
		return &c
	case *Reg:
		c := *x
		return &c
	case *Param:
		c := *x
		return &c
	case *Bin:
		return &Bin{Op: x.Op, A: CloneExpr(x.A), B: CloneExpr(x.B)}
	case *Un:
		return &Un{Op: x.Op, A: CloneExpr(x.A)}
	default:
		panic("ir: CloneExpr of unknown expression")
	}
}

// SubstReg rewrites every Reg reference from to to within an expression,
// returning the rewritten expression (used by loop fusion to merge
// induction variables).
func SubstReg(e Expr, from, to int) Expr {
	switch x := e.(type) {
	case nil:
		return nil
	case *Reg:
		if x.ID == from {
			return &Reg{ID: to}
		}
		return x
	case *Bin:
		return &Bin{Op: x.Op, A: SubstReg(x.A, from, to), B: SubstReg(x.B, from, to)}
	case *Un:
		return &Un{Op: x.Op, A: SubstReg(x.A, from, to)}
	default:
		return x
	}
}

// SubstRegBlock applies SubstReg to every expression in a block, in place.
func SubstRegBlock(body []Stmt, from, to int) {
	for _, s := range body {
		switch st := s.(type) {
		case *Loop:
			st.Start = SubstReg(st.Start, from, to)
			st.End = SubstReg(st.End, from, to)
			st.Step = SubstReg(st.Step, from, to)
			SubstRegBlock(st.Body, from, to)
		case *Load:
			st.Index = SubstReg(st.Index, from, to)
		case *Store:
			st.Index = SubstReg(st.Index, from, to)
			st.Val = SubstReg(st.Val, from, to)
		case *Assign:
			st.Val = SubstReg(st.Val, from, to)
		case *If:
			st.Cond = SubstReg(st.Cond, from, to)
			SubstRegBlock(st.Then, from, to)
			SubstRegBlock(st.Else, from, to)
		case *Call:
			for i, a := range st.Args {
				st.Args[i] = SubstReg(a, from, to)
			}
		case *Return:
			if st.Val != nil {
				st.Val = SubstReg(st.Val, from, to)
			}
		case *Prefetch:
			st.Index = SubstReg(st.Index, from, to)
		case *BatchPrefetch:
			for i := range st.Entries {
				st.Entries[i].Index = SubstReg(st.Entries[i].Index, from, to)
			}
		case *GatherPrefetch:
			st.Lo = SubstReg(st.Lo, from, to)
			st.Hi = SubstReg(st.Hi, from, to)
		case *Evict:
			st.Index = SubstReg(st.Index, from, to)
		case *Intrinsic:
			st.Dst.Off = SubstReg(st.Dst.Off, from, to)
			st.A.Off = SubstReg(st.A.Off, from, to)
			st.B.Off = SubstReg(st.B.Off, from, to)
			for i := range st.Ahead {
				st.Ahead[i].Off = SubstReg(st.Ahead[i].Off, from, to)
			}
		}
	}
}
