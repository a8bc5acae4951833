package exec

import (
	"fmt"
	"math"

	"mira/internal/ir"
	"mira/internal/rt"
	"mira/internal/sim"
)

// intrinsic executes one tensor operation: matrices stream through the
// backend's bulk path (so they exercise the cache sections exactly like
// scalar code does) and the arithmetic itself runs natively, charged per
// floating-point operation. Between the two, once its operands are read,
// it prefetches the next intrinsic's (see ahead).
func (e *Executor) intrinsic(fr *frame, st *intrinsicSite) error {
	clk := fr.clk
	switch st.kind {
	case ir.IntrMatMul:
		a, err := e.readMatrix(fr, st.a, 0)
		if err != nil {
			return err
		}
		b, err := e.readMatrix(fr, st.b, 1)
		if err != nil {
			return err
		}
		c, err := e.readMatrix(fr, st.dst, 2)
		if err != nil {
			return err
		}
		if err := e.ahead(fr, st); err != nil {
			return err
		}
		m, k, n := int(st.a.rows), int(st.a.cols), int(st.b.cols)
		matMul(c, a, b, m, k, n)
		clk.Advance(e.opt.FloatOp * sim.Duration(2*m*n*k))
		return e.writeMatrix(fr, st.dst, c)

	case ir.IntrMatMulT:
		a, err := e.readMatrix(fr, st.a, 0)
		if err != nil {
			return err
		}
		b, err := e.readMatrix(fr, st.b, 1)
		if err != nil {
			return err
		}
		c, err := e.readMatrix(fr, st.dst, 2)
		if err != nil {
			return err
		}
		if err := e.ahead(fr, st); err != nil {
			return err
		}
		m, k, n := int(st.a.rows), int(st.a.cols), int(st.b.rows)
		matMulT(c, a, b, m, k, n)
		clk.Advance(e.opt.FloatOp * sim.Duration(2*m*n*k))
		return e.writeMatrix(fr, st.dst, c)

	case ir.IntrAdd:
		a, err := e.readMatrix(fr, st.a, 0)
		if err != nil {
			return err
		}
		b, err := e.readMatrix(fr, st.b, 1)
		if err != nil {
			return err
		}
		if err := e.ahead(fr, st); err != nil {
			return err
		}
		if len(a) != len(b) || st.dst.elems() != st.a.elems() {
			return fmt.Errorf("exec: add shape mismatch")
		}
		out := e.operand(2, len(a))
		for i := range a {
			out[i] = a[i] + b[i]
		}
		clk.Advance(e.opt.FloatOp * sim.Duration(len(a)))
		return e.writeMatrix(fr, st.dst, out)

	case ir.IntrLayerNorm:
		a, err := e.readMatrix(fr, st.a, 0)
		if err != nil {
			return err
		}
		if err := e.ahead(fr, st); err != nil {
			return err
		}
		rows, cols := int(st.a.rows), int(st.a.cols)
		out := e.operand(1, len(a))
		for i := 0; i < rows; i++ {
			row := a[i*cols : (i+1)*cols]
			var mean float64
			for _, v := range row {
				mean += v
			}
			mean /= float64(cols)
			var variance float64
			for _, v := range row {
				d := v - mean
				variance += d * d
			}
			variance /= float64(cols)
			inv := 1 / math.Sqrt(variance+1e-5)
			for j, v := range row {
				out[i*cols+j] = (v - mean) * inv
			}
		}
		clk.Advance(e.opt.FloatOp * sim.Duration(8*len(a)))
		return e.writeMatrix(fr, st.dst, out)

	case ir.IntrSoftmax:
		a, err := e.readMatrix(fr, st.a, 0)
		if err != nil {
			return err
		}
		if err := e.ahead(fr, st); err != nil {
			return err
		}
		rows, cols := int(st.a.rows), int(st.a.cols)
		out := e.operand(1, len(a))
		for i := 0; i < rows; i++ {
			row := a[i*cols : (i+1)*cols]
			maxV := math.Inf(-1)
			for _, v := range row {
				if v > maxV {
					maxV = v
				}
			}
			var sum float64
			for j, v := range row {
				ev := math.Exp(v - maxV)
				out[i*cols+j] = ev
				sum += ev
			}
			for j := range row {
				out[i*cols+j] /= sum
			}
		}
		clk.Advance(e.opt.FloatOp * sim.Duration(6*len(a)))
		return e.writeMatrix(fr, st.dst, out)

	case ir.IntrGelu:
		a, err := e.readMatrix(fr, st.a, 0)
		if err != nil {
			return err
		}
		if err := e.ahead(fr, st); err != nil {
			return err
		}
		out := e.operand(1, len(a))
		const c0 = 0.7978845608028654 // sqrt(2/pi)
		for i, v := range a {
			out[i] = 0.5 * v * (1 + math.Tanh(c0*(v+0.044715*v*v*v)))
		}
		clk.Advance(e.opt.FloatOp * sim.Duration(8*len(a)))
		return e.writeMatrix(fr, st.dst, out)

	case ir.IntrCopy:
		a, err := e.readMatrix(fr, st.a, 0)
		if err != nil {
			return err
		}
		if err := e.ahead(fr, st); err != nil {
			return err
		}
		return e.writeMatrix(fr, st.dst, a)

	case ir.IntrZero:
		if err := e.ahead(fr, st); err != nil {
			return err
		}
		out := e.operand(0, st.dst.elems())
		clear(out)
		return e.writeMatrix(fr, st.dst, out)

	default:
		return fmt.Errorf("exec: unknown intrinsic %v", st.kind)
	}
}

// maxAheadEntries caps one doorbell of operands ahead at the planner's
// deepest doorbell batch (its maxBatchLines).
const maxAheadEntries = 16

// ahead prefetches the operands the next intrinsic reads (ir.Intrinsic.Ahead):
// one entry per line or page each range touches, posted through the
// backend's PrefetchBatch in doorbells of at most maxAheadEntries, so the
// operands land while this intrinsic computes. Offloaded bodies run beside
// far memory and prefetch nothing.
func (e *Executor) ahead(fr *frame, st *intrinsicSite) error {
	if len(st.ahead) == 0 || e.remote != nil {
		return nil
	}
	if e.gathered == nil {
		e.gathered = make([]rt.BatchEntry, 0, maxAheadEntries)
	}
	e.gathered = e.gathered[:0]
	for _, r := range st.ahead {
		off, err := r.off(fr)
		if err != nil {
			return err
		}
		// One entry per step-aligned line or page of [lo, lo+elems): an
		// object's lines and pages start at its element 0.
		lo := off.AsInt()
		for k := lo / r.step; k*r.step < lo+r.elems; k++ {
			if len(e.gathered) == maxAheadEntries {
				if err := e.postAhead(fr); err != nil {
					return err
				}
			}
			e.gathered = append(e.gathered, rt.BatchEntry{Obj: r.name, Elem: max(lo, k*r.step), H: r.h})
		}
	}
	return e.postAhead(fr)
}

// postAhead posts the pending operands ahead as one doorbell.
func (e *Executor) postAhead(fr *frame) error {
	if len(e.gathered) == 0 {
		return nil
	}
	e.yield()
	t0 := fr.clk.Now()
	if err := e.be.PrefetchBatch(fr.clk, e.gathered); err != nil {
		return err
	}
	e.chargeRuntime(fr, fr.clk.Now().Sub(t0))
	e.gathered = e.gathered[:0]
	return nil
}

// readMatrix pulls a tensor view through the bulk path straight into float
// scratch slot (see operand): the backend fills the floats' own bytes.
func (e *Executor) readMatrix(fr *frame, t tensor, slot int) ([]float64, error) {
	off, err := t.off(fr)
	if err != nil {
		return nil, err
	}
	out := e.operand(slot, t.elems())
	buf := floatBytes(out)
	if err := e.bulk(fr, t.objRef, off.AsInt(), buf, false); err != nil {
		return nil, err
	}
	farOrder(buf)
	return out, nil
}

// writeMatrix pushes a float slice back through the bulk path as the bytes
// it already is; vals is dead afterwards.
func (e *Executor) writeMatrix(fr *frame, t tensor, vals []float64) error {
	off, err := t.off(fr)
	if err != nil {
		return err
	}
	if len(vals) != t.elems() {
		return fmt.Errorf("exec: writeMatrix size %d != %dx%d", len(vals), t.rows, t.cols)
	}
	buf := floatBytes(vals)
	farOrder(buf)
	return e.bulk(fr, t.objRef, off.AsInt(), buf, true)
}

// operand returns float scratch slot sized to n values, contents unspecified:
// a tensor operand or result, and — viewed through floatBytes — the buffer
// the backend's bulk path reads into or writes from, so nothing stands
// between the two. Three slots are enough because no intrinsic holds more
// than three matrices at once (matmul's two sources and its accumulating
// destination; add's two sources and its result), an intrinsic never starts
// another one, and a matrix is dead once writeMatrix's bulk write has
// returned (no backend keeps the buffer). One Executor is one simulated
// thread's one request (session.exec) and an offload child has its own, so
// the scratch needs no locking.
func (e *Executor) operand(slot, n int) []float64 {
	if cap(e.floats[slot]) < n {
		e.floats[slot] = make([]float64, n)
	}
	return e.floats[slot][:n]
}

// bulk routes a bulk transfer locally or, in offloaded mode, to far-node
// memory.
func (e *Executor) bulk(fr *frame, o objRef, elem int64, buf []byte, write bool) error {
	clk := fr.clk
	e.yield()
	if e.remote != nil {
		clk.Advance(e.opt.ComputeOp * sim.Duration(len(buf)/64+1))
		return e.remote.RemoteBulk(clk, o.name, elem, buf, write)
	}
	t0 := clk.Now()
	var err error
	switch {
	case o.byH && write:
		err = e.hb.BulkWriteH(clk, o.h, elem, buf)
	case o.byH:
		err = e.hb.BulkReadH(clk, o.h, elem, buf)
	case write:
		err = e.be.BulkWrite(clk, o.name, elem, buf)
	default:
		err = e.be.BulkRead(clk, o.name, elem, buf)
	}
	e.chargeRuntime(fr, clk.Now().Sub(t0))
	return err
}
