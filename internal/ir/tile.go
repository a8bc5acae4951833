package ir

// A tile nest is a counted loop strip-mined at cache-line boundaries, the
// shape codegen gives a loop whose prefetch and eviction-hint guards can only
// fire on a line boundary (§4.5): the guards run once per line instead of
// once per element. TileNest builds it and MatchTileNest recognises it, so
// the shape is written down in this one place.
//
// For a flat loop `for iv := S; iv < E; iv += s { body }` with constant
// S >= 0, E and s > 0, and a tile of le elements that s divides, the nest is
//
//	for t := S - S%le + S%s; t < E; t += le {
//	    iv = max(S, t)
//	    <guards>                                     // once per tile, at its first index
//	    for iv = iv; iv < min(E, t + le - S%s); iv += s { body }
//	}
//
// Tile k covers the indices in [k·le, k·le+le) that the flat loop visits. t
// is the first of them, except in the first tile, which starts at S. Every
// tile the outer loop enters is non-empty, except the first when S >= E. A
// caller that must not evaluate guards for an empty loop therefore checks
// S < E, or counts tiles with Tiles. The inner loop leaves iv at the last
// index visited, as the flat loop does.

// TileOps is the operator count a tile nest pays per tile besides its
// guards: the outer loop's control, the max that clamps the tile's first
// index, and the min and add that bound its last.
const TileOps = 4

// Tiles reports whether TileNest can strip-mine l into tiles of le
// elements — constant bounds with a non-negative start, and a constant
// positive step that divides le — and if so how many tiles the nest runs
// (its outer loop's trip count) and how many elements the flat loop visits.
func Tiles(l *Loop, le int64) (tiles, trips int64, ok bool) {
	s, e, step, isConst := constBounds(l)
	if !isConst || s < 0 || step <= 0 || le <= 0 || le%step != 0 {
		return 0, 0, false
	}
	if t0 := tileStart(s, step, le); e > t0 {
		tiles = (e - t0 + le - 1) / le
	}
	if e > s {
		trips = (e - s + step - 1) / step
	}
	return tiles, trips, true
}

// TileNest strip-mines a loop l that Tiles accepts into tiles of le elements,
// evaluating guards once per tile with l's induction variable at the tile's
// first index. tileReg is a fresh register for the outer loop. The inner
// loop keeps l's name, induction register, step and body (the body slice is
// shared, not copied).
func TileNest(l *Loop, le int64, tileReg int, guards []Stmt) *Loop {
	s, e, step, _ := constBounds(l)
	phase := s % step
	t := func() Expr { return &Reg{ID: tileReg} }
	body := make([]Stmt, 0, len(guards)+2)
	body = append(body, &Assign{Dst: l.IVReg, Val: Max(C(s), t())})
	body = append(body, guards...)
	body = append(body, &Loop{
		Name:  l.Name,
		IVReg: l.IVReg,
		Start: &Reg{ID: l.IVReg},
		End:   Min(C(e), Add(t(), C(le-phase))),
		Step:  C(step),
		Body:  l.Body,
	})
	return &Loop{Name: l.Name, IVReg: tileReg, Start: C(tileStart(s, step, le)), End: C(e), Step: C(le), Body: body}
}

// MatchTileNest recognises a TileNest result: it returns the flat loop the
// nest was built from (its body the inner loop's, shared) and the per-tile
// guards. Any other statement is not a tile nest.
func MatchTileNest(st Stmt) (flat *Loop, guards []Stmt, ok bool) {
	outer, isLoop := st.(*Loop)
	if !isLoop || len(outer.Body) < 2 {
		return nil, nil, false
	}
	t0, e, le, okOuter := constBounds(outer)
	head, isAssign := outer.Body[0].(*Assign)
	inner, isInner := outer.Body[len(outer.Body)-1].(*Loop)
	if !okOuter || !isAssign || !isInner || inner.IVReg != head.Dst || le <= 0 {
		return nil, nil, false
	}
	// iv = max(S, t)
	s, okS := binOf(head.Val, OpMax, outer.IVReg)
	// inner: iv = iv; iv < min(E, t + le - phase); iv += step
	step, okStep := inner.Step.(*Const)
	start, okStart := inner.Start.(*Reg)
	end, okEnd := inner.End.(*Bin)
	if !okS || !okStep || !okStart || start.ID != inner.IVReg || !okEnd || end.Op != OpMin {
		return nil, nil, false
	}
	e2, okE := end.A.(*Const)
	width, okW := binOf(end.B, OpAdd, outer.IVReg)
	if !okE || !okW || e2.I != e || s < 0 || step.I <= 0 || le%step.I != 0 ||
		t0 != tileStart(s, step.I, le) || width != le-s%step.I {
		return nil, nil, false
	}
	flat = &Loop{Name: inner.Name, IVReg: inner.IVReg, Start: C(s), End: C(e), Step: C(step.I), Body: inner.Body}
	return flat, outer.Body[1 : len(outer.Body)-1], true
}

// tileStart is the outer loop's first value: the first index of the tile
// holding s that the loop visits, or that tile's aligned phase point.
func tileStart(s, step, le int64) int64 { return s - s%le + s%step }

// constBounds reads a loop's bounds when all three are constants.
func constBounds(l *Loop) (start, end, step int64, ok bool) {
	s, ok1 := l.Start.(*Const)
	e, ok2 := l.End.(*Const)
	st, ok3 := l.Step.(*Const)
	if !ok1 || !ok2 || !ok3 {
		return 0, 0, 0, false
	}
	return s.I, e.I, st.I, true
}

// binOf matches `c op reg` (for OpMax) or `reg op c` (for OpAdd) — the two
// operand orders TileNest emits — and returns c.
func binOf(x Expr, op BinOp, reg int) (int64, bool) {
	b, ok := x.(*Bin)
	if !ok || b.Op != op {
		return 0, false
	}
	c, r := b.A, b.B
	if op == OpAdd {
		c, r = b.B, b.A
	}
	cc, okC := c.(*Const)
	rr, okR := r.(*Reg)
	if !okC || !okR || rr.ID != reg {
		return 0, false
	}
	return cc.I, true
}
