// Package gpt2 reproduces the paper's GPT-2 inference workload (§6): a
// scaled-down decoder-only transformer forward pass expressed with tensor
// intrinsics (the paper runs GPT-2 on ONNX operators through MLIR the same
// way). The workload's far-memory-relevant structure is what matters for
// Fig. 17: layer weights are used layer by layer and never again, the KV
// projections persist per layer (the key-value cache that "can be several
// times bigger than the model itself"), and every operator streams
// sequentially — so with precise per-layer lifetimes and prefetching, a few
// percent of local memory sustains full throughput.
package gpt2

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"sync"

	"mira/internal/exec"
	"mira/internal/ir"
	"mira/internal/sim"
	"mira/internal/workload"
)

// Config sizes the model.
type Config struct {
	// Layers is the number of transformer blocks.
	Layers int
	// DModel is the embedding width.
	DModel int64
	// DFF is the feed-forward width.
	DFF int64
	// SeqLen is the sequence length.
	SeqLen int64
	// Seed drives weight/input generation (the paper compiles from a
	// random batch and tests on others).
	Seed uint64
}

// DefaultConfig is the harness size: 4 blocks of d=64 (about 1.6 MB of
// weights + activations).
func DefaultConfig() Config {
	return Config{Layers: 4, DModel: 64, DFF: 256, SeqLen: 32, Seed: 117}
}

// Workload implements workload.Workload. The generated tables and the
// native reference are a pure function of cfg, so each is computed once per
// Workload, on first use, and shared read-only by every session the planner,
// harness, mtrun threads or serve's scheduler goroutines open on it.
type Workload struct {
	cfg  Config
	prog *ir.Program

	genOnce sync.Once
	tables  []table // sorted by name
	weights map[string][]float64

	refOnce sync.Once
	ref     []float64
}

// table is one object's byte image, as Init hands it to InitObject.
type table struct {
	name  string
	image []byte
}

// New builds the workload.
func New(cfg Config) *Workload {
	if cfg.Layers == 0 {
		cfg = DefaultConfig()
	}
	return &Workload{cfg: cfg, prog: build(cfg)}
}

// Name implements workload.Workload.
func (w *Workload) Name() string { return "gpt2" }

// Program implements workload.Workload.
func (w *Workload) Program() *ir.Program { return w.prog }

// Params implements workload.Workload.
func (w *Workload) Params() map[string]exec.Value { return nil }

// Config returns the sizing.
func (w *Workload) Config() Config { return w.cfg }

// FullMemoryBytes implements workload.Workload.
func (w *Workload) FullMemoryBytes() int64 {
	c := w.cfg
	perLayer := 4*c.DModel*c.DModel + 2*c.DModel*c.DFF + // weights
		2*c.SeqLen*c.DModel // kv
	act := 5*c.SeqLen*c.DModel + 2*c.SeqLen*c.SeqLen + 2*c.SeqLen*c.DFF
	return (int64(c.Layers)*perLayer + act) * 8
}

// Per-layer object names.
func wname(kind string, layer int) string { return fmt.Sprintf("%s_l%d", kind, layer) }

func build(cfg Config) *ir.Program {
	b := ir.NewBuilder("gpt2")
	T, D, F := cfg.SeqLen, cfg.DModel, cfg.DFF
	for l := 0; l < cfg.Layers; l++ {
		b.FloatArray(wname("wq", l), D*D)
		b.FloatArray(wname("wk", l), D*D)
		b.FloatArray(wname("wv", l), D*D)
		b.FloatArray(wname("wo", l), D*D)
		b.FloatArray(wname("w1", l), D*F)
		b.FloatArray(wname("w2", l), F*D)
		// The per-layer key/value cache (persists after the layer —
		// the memory the paper's intro calls out).
		b.FloatArray(wname("kcache", l), T*D)
		b.FloatArray(wname("vcache", l), T*D)
	}
	// Activations, reused across layers.
	b.FloatArray("x", T*D)
	b.FloatArray("q", T*D)
	b.FloatArray("attnout", T*D)
	b.FloatArray("scores", T*T)
	b.FloatArray("probs", T*T)
	b.FloatArray("ff1", T*F)
	b.FloatArray("ff1act", T*F)
	b.FloatArray("ff2", T*D)
	b.FloatArray("tmp", T*D)

	// One function per layer: the paper's per-layer lifetime boundaries
	// fall out of the call structure.
	for l := 0; l < cfg.Layers; l++ {
		fb := b.Func(fmt.Sprintf("layer%d", l))
		x := ir.T("x", nil, T, D)
		q := ir.T("q", nil, T, D)
		k := ir.T(wname("kcache", l), nil, T, D)
		v := ir.T(wname("vcache", l), nil, T, D)
		// Projections (MatMul accumulates; destinations hold zeros or
		// are overwritten by Copy first).
		fb.Zero(q)
		fb.MatMul(q, x, ir.T(wname("wq", l), nil, D, D))
		fb.Zero(k)
		fb.MatMul(k, x, ir.T(wname("wk", l), nil, D, D))
		fb.Zero(v)
		fb.MatMul(v, x, ir.T(wname("wv", l), nil, D, D))
		// Attention.
		scores := ir.T("scores", nil, T, T)
		fb.Zero(scores)
		fb.MatMulT(scores, q, k)
		probs := ir.T("probs", nil, T, T)
		fb.Unary(ir.IntrSoftmax, probs, scores)
		attn := ir.T("attnout", nil, T, D)
		fb.Zero(attn)
		fb.MatMul(attn, probs, v)
		tmp := ir.T("tmp", nil, T, D)
		fb.Zero(tmp)
		fb.MatMul(tmp, attn, ir.T(wname("wo", l), nil, D, D))
		fb.Binary(ir.IntrAdd, tmp, x, tmp)
		fb.Unary(ir.IntrLayerNorm, x, tmp)
		// Feed-forward.
		ff1 := ir.T("ff1", nil, T, F)
		fb.Zero(ff1)
		fb.MatMul(ff1, x, ir.T(wname("w1", l), nil, D, F))
		ff1act := ir.T("ff1act", nil, T, F)
		fb.Unary(ir.IntrGelu, ff1act, ff1)
		ff2 := ir.T("ff2", nil, T, D)
		fb.Zero(ff2)
		fb.MatMul(ff2, ff1act, ir.T(wname("w2", l), nil, F, D))
		fb.Binary(ir.IntrAdd, ff2, x, ff2)
		fb.Unary(ir.IntrLayerNorm, x, ff2)
	}
	fb := b.Func("inference")
	for l := 0; l < cfg.Layers; l++ {
		fb.Call(fmt.Sprintf("layer%d", l))
	}
	b.SetEntry("inference")
	return b.MustProgram()
}

// generate builds all model parameters and the input deterministically, once.
func (w *Workload) generate() {
	w.genOnce.Do(func() {
		c := w.cfg
		rng := sim.NewRNG(c.Seed)
		w.weights = map[string][]float64{}
		gen := func(name string, n int64, scale float64) {
			vals := make([]float64, n)
			for i := range vals {
				vals[i] = (rng.Float64()*2 - 1) * scale
			}
			w.weights[name] = vals
			w.tables = append(w.tables, table{name, floatBytes(vals)})
		}
		D, F, T := c.DModel, c.DFF, c.SeqLen
		scale := 1 / math.Sqrt(float64(D))
		for l := 0; l < c.Layers; l++ {
			gen(wname("wq", l), D*D, scale)
			gen(wname("wk", l), D*D, scale)
			gen(wname("wv", l), D*D, scale)
			gen(wname("wo", l), D*D, scale)
			gen(wname("w1", l), D*F, scale)
			gen(wname("w2", l), F*D, 1/math.Sqrt(float64(F)))
		}
		gen("x", T*D, 1)
		sort.Slice(w.tables, func(i, j int) bool { return w.tables[i].name < w.tables[j].name })
	})
}

// Init implements workload.Workload: objects are loaded in name order, from
// images every InitObject in the tree copies out of and none may write.
func (w *Workload) Init(t workload.ObjectIniter) error {
	w.generate()
	for _, tb := range w.tables {
		if err := t.InitObject(tb.name, tb.image); err != nil {
			return err
		}
	}
	return nil
}

func floatBytes(xs []float64) []byte {
	out := make([]byte, len(xs)*8)
	for i, x := range xs {
		binary.LittleEndian.PutUint64(out[i*8:], math.Float64bits(x))
	}
	return out
}

// Reference is the final hidden state computed natively, replicating the
// executor's intrinsic evaluation orders exactly. Computed once; the result
// is shared and must not be written.
func (w *Workload) Reference() []float64 {
	w.refOnce.Do(func() { w.ref = w.reference() })
	return w.ref
}

func (w *Workload) reference() []float64 {
	c := w.cfg
	w.generate()
	ws := w.weights
	T, D, F := int(c.SeqLen), int(c.DModel), int(c.DFF)
	x := append([]float64(nil), ws["x"]...)

	matmul := func(dst, a, b []float64, m, k, n int) {
		for i := 0; i < m; i++ {
			for kk := 0; kk < k; kk++ {
				av := a[i*k+kk]
				if av == 0 {
					continue
				}
				row := b[kk*n : (kk+1)*n]
				out := dst[i*n : (i+1)*n]
				for j := range row {
					out[j] += av * row[j]
				}
			}
		}
	}
	matmulT := func(dst, a, b []float64, m, k, n int) {
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				var acc float64
				ar := a[i*k : (i+1)*k]
				br := b[j*k : (j+1)*k]
				for kk := range ar {
					acc += ar[kk] * br[kk]
				}
				dst[i*n+j] += acc
			}
		}
	}
	layernorm := func(dst, a []float64, rows, cols int) {
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
				dst[i*cols+j] = (v - mean) * inv
			}
		}
	}
	softmax := func(dst, a []float64, rows, cols int) {
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
				dst[i*cols+j] = ev
				sum += ev
			}
			for j := range row {
				dst[i*cols+j] /= sum
			}
		}
	}
	gelu := func(dst, a []float64) {
		const c0 = 0.7978845608028654
		for i, v := range a {
			dst[i] = 0.5 * v * (1 + math.Tanh(c0*(v+0.044715*v*v*v)))
		}
	}

	for l := 0; l < c.Layers; l++ {
		q := make([]float64, T*D)
		k := make([]float64, T*D)
		v := make([]float64, T*D)
		matmul(q, x, ws[wname("wq", l)], T, D, D)
		matmul(k, x, ws[wname("wk", l)], T, D, D)
		matmul(v, x, ws[wname("wv", l)], T, D, D)
		scores := make([]float64, T*T)
		matmulT(scores, q, k, T, D, T)
		probs := make([]float64, T*T)
		softmax(probs, scores, T, T)
		attn := make([]float64, T*D)
		matmul(attn, probs, v, T, T, D)
		tmp := make([]float64, T*D)
		matmul(tmp, attn, ws[wname("wo", l)], T, D, D)
		for i := range tmp {
			tmp[i] = x[i] + tmp[i]
		}
		layernorm(x, tmp, T, D)
		ff1 := make([]float64, T*F)
		matmul(ff1, x, ws[wname("w1", l)], T, D, F)
		ff1act := make([]float64, T*F)
		gelu(ff1act, ff1)
		ff2 := make([]float64, T*D)
		matmul(ff2, ff1act, ws[wname("w2", l)], T, F, D)
		for i := range ff2 {
			ff2[i] = x[i] + ff2[i]
		}
		layernorm(x, ff2, T, D)
	}
	return x
}

// Verify implements workload.Verifier.
func (w *Workload) Verify(d workload.ObjectDumper) error {
	want := w.Reference()
	dump, err := d.DumpObject("x")
	if err != nil {
		return err
	}
	for i, wv := range want {
		got := math.Float64frombits(binary.LittleEndian.Uint64(dump[i*8:]))
		if math.Abs(got-wv) > 1e-9 {
			return fmt.Errorf("gpt2: x[%d] = %g, want %g", i, got, wv)
		}
	}
	return nil
}
