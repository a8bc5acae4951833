package exec

import (
	"encoding/binary"
	"fmt"
	"math"

	"mira/internal/ir"
	"mira/internal/sim"
)

// intrinsic executes one tensor operation: matrices stream through the
// backend's bulk path (so they exercise the cache sections exactly like
// scalar code does) and the arithmetic itself runs natively, charged per
// floating-point operation.
func (e *Executor) intrinsic(clk *sim.Clock, fr *frame, params map[string]Value, st *ir.Intrinsic) error {
	switch st.Kind {
	case ir.IntrMatMul:
		a, err := e.readMatrix(clk, fr, params, st.A)
		if err != nil {
			return err
		}
		b, err := e.readMatrix(clk, fr, params, st.B)
		if err != nil {
			return err
		}
		c, err := e.readMatrix(clk, fr, params, st.Dst)
		if err != nil {
			return err
		}
		m, k, n := int(st.A.Rows), int(st.A.Cols), int(st.B.Cols)
		for i := 0; i < m; i++ {
			for kk := 0; kk < k; kk++ {
				av := a[i*k+kk]
				if av == 0 {
					continue
				}
				row := b[kk*n : (kk+1)*n]
				out := c[i*n : (i+1)*n]
				for j := range row {
					out[j] += av * row[j]
				}
			}
		}
		clk.Advance(e.opt.FloatOp * sim.Duration(2*m*n*k))
		return e.writeMatrix(clk, fr, params, st.Dst, c)

	case ir.IntrMatMulT:
		a, err := e.readMatrix(clk, fr, params, st.A)
		if err != nil {
			return err
		}
		b, err := e.readMatrix(clk, fr, params, st.B)
		if err != nil {
			return err
		}
		c, err := e.readMatrix(clk, fr, params, st.Dst)
		if err != nil {
			return err
		}
		m, k, n := int(st.A.Rows), int(st.A.Cols), int(st.B.Rows)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				var acc float64
				ar := a[i*k : (i+1)*k]
				br := b[j*k : (j+1)*k]
				for kk := range ar {
					acc += ar[kk] * br[kk]
				}
				c[i*n+j] += acc
			}
		}
		clk.Advance(e.opt.FloatOp * sim.Duration(2*m*n*k))
		return e.writeMatrix(clk, fr, params, st.Dst, c)

	case ir.IntrAdd:
		a, err := e.readMatrix(clk, fr, params, st.A)
		if err != nil {
			return err
		}
		b, err := e.readMatrix(clk, fr, params, st.B)
		if err != nil {
			return err
		}
		if len(a) != len(b) || st.Dst.Elems() != st.A.Elems() {
			return fmt.Errorf("exec: add shape mismatch")
		}
		out := make([]float64, len(a))
		for i := range a {
			out[i] = a[i] + b[i]
		}
		clk.Advance(e.opt.FloatOp * sim.Duration(len(a)))
		return e.writeMatrix(clk, fr, params, st.Dst, out)

	case ir.IntrLayerNorm:
		a, err := e.readMatrix(clk, fr, params, st.A)
		if err != nil {
			return err
		}
		rows, cols := int(st.A.Rows), int(st.A.Cols)
		out := make([]float64, len(a))
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
		return e.writeMatrix(clk, fr, params, st.Dst, out)

	case ir.IntrSoftmax:
		a, err := e.readMatrix(clk, fr, params, st.A)
		if err != nil {
			return err
		}
		rows, cols := int(st.A.Rows), int(st.A.Cols)
		out := make([]float64, len(a))
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
		return e.writeMatrix(clk, fr, params, st.Dst, out)

	case ir.IntrGelu:
		a, err := e.readMatrix(clk, fr, params, st.A)
		if err != nil {
			return err
		}
		out := make([]float64, len(a))
		const c0 = 0.7978845608028654 // sqrt(2/pi)
		for i, v := range a {
			out[i] = 0.5 * v * (1 + math.Tanh(c0*(v+0.044715*v*v*v)))
		}
		clk.Advance(e.opt.FloatOp * sim.Duration(8*len(a)))
		return e.writeMatrix(clk, fr, params, st.Dst, out)

	case ir.IntrCopy:
		a, err := e.readMatrix(clk, fr, params, st.A)
		if err != nil {
			return err
		}
		return e.writeMatrix(clk, fr, params, st.Dst, a)

	case ir.IntrZero:
		return e.writeMatrix(clk, fr, params, st.Dst, make([]float64, st.Dst.Elems()))

	default:
		return fmt.Errorf("exec: unknown intrinsic %v", st.Kind)
	}
}

// readMatrix pulls a tensor view into a float slice through the bulk path.
func (e *Executor) readMatrix(clk *sim.Clock, fr *frame, params map[string]Value, t ir.TensorRef) ([]float64, error) {
	off, err := e.eval(clk, fr, params, t.Off)
	if err != nil {
		return nil, err
	}
	n := int(t.Elems())
	buf := e.staging(n * 8)
	if err := e.bulk(clk, fr, t.Obj, off.AsInt(), buf, false); err != nil {
		return nil, err
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[i*8:]))
	}
	return out, nil
}

// writeMatrix pushes a float slice back through the bulk path.
func (e *Executor) writeMatrix(clk *sim.Clock, fr *frame, params map[string]Value, t ir.TensorRef, vals []float64) error {
	off, err := e.eval(clk, fr, params, t.Off)
	if err != nil {
		return err
	}
	if int64(len(vals)) != t.Elems() {
		return fmt.Errorf("exec: writeMatrix size %d != %dx%d", len(vals), t.Rows, t.Cols)
	}
	buf := e.staging(len(vals) * 8)
	for i, v := range vals {
		binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(v))
	}
	return e.bulk(clk, fr, t.Obj, off.AsInt(), buf, true)
}

// staging returns the executor's bulk staging buffer sized to n bytes: the
// byte half of a tensor operand, dead as soon as readMatrix has decoded it or
// the bulk write has returned (the float halves stay separate allocations —
// two operands are live together). One Executor is one simulated thread's
// one request (session.exec), so the scratch needs no locking.
func (e *Executor) staging(n int) []byte {
	if cap(e.stage) < n {
		e.stage = make([]byte, n)
	}
	return e.stage[:n]
}

// bulk routes a bulk transfer locally or, in offloaded mode, to far-node
// memory.
func (e *Executor) bulk(clk *sim.Clock, fr *frame, obj string, elem int64, buf []byte, write bool) error {
	if e.remote != nil {
		e.yield()
		clk.Advance(e.opt.ComputeOp * sim.Duration(len(buf)/64+1))
		return e.remote.RemoteBulk(clk, obj, elem, buf, write)
	}
	e.yield()
	t0 := clk.Now()
	var err error
	if write {
		err = e.be.BulkWrite(clk, obj, elem, buf)
	} else {
		err = e.be.BulkRead(clk, obj, elem, buf)
	}
	e.chargeRuntime(fr, clk.Now().Sub(t0))
	return err
}
