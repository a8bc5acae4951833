package harness

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"mira/internal/baselines/fastswap"
	"mira/internal/baselines/leap"
	"mira/internal/cluster"
	"mira/internal/exec"
	"mira/internal/ir"
	"mira/internal/planner"
	"mira/internal/session"
	"mira/internal/sim"
	"mira/internal/workload"
)

// randomWorkload is a generated program with its data and object roles.
type randomWorkload struct {
	prog *ir.Program
	data map[string][]byte
	full int64
}

func (w *randomWorkload) Name() string                  { return w.prog.Name }
func (w *randomWorkload) Program() *ir.Program          { return w.prog }
func (w *randomWorkload) Params() map[string]exec.Value { return nil }
func (w *randomWorkload) FullMemoryBytes() int64        { return w.full }
func (w *randomWorkload) Init(t workload.ObjectIniter) error {
	for name, d := range w.data {
		if err := t.InitObject(name, d); err != nil {
			return err
		}
	}
	return nil
}

// generate builds a random but well-formed program: data arrays (read and
// written), read-only index arrays whose values are valid element indices
// of their target array, and loops mixing sequential, strided, and indirect
// accesses — the pattern space the analyses classify.
func generate(seed uint64) *randomWorkload {
	rng := sim.NewRNG(seed)
	b := ir.NewBuilder(fmt.Sprintf("rand%d", seed))
	w := &randomWorkload{data: map[string][]byte{}}

	nData := 2 + rng.Intn(3)
	dataNames := make([]string, nData)
	counts := make([]int64, nData)
	for i := 0; i < nData; i++ {
		dataNames[i] = fmt.Sprintf("d%d", i)
		counts[i] = int64(64 + rng.Intn(512))
		b.IntArray(dataNames[i], counts[i])
		buf := make([]byte, counts[i]*8)
		for e := int64(0); e < counts[i]; e++ {
			binary.LittleEndian.PutUint64(buf[e*8:], rng.Uint64()%1000)
		}
		w.data[dataNames[i]] = buf
		w.full += counts[i] * 8
	}
	// Index arrays: idx[k] targets data array tgt, values < counts[tgt].
	nIdx := 1 + rng.Intn(2)
	idxNames := make([]string, nIdx)
	idxTarget := make([]int, nIdx)
	idxCount := make([]int64, nIdx)
	for i := 0; i < nIdx; i++ {
		idxNames[i] = fmt.Sprintf("x%d", i)
		idxTarget[i] = rng.Intn(nData)
		idxCount[i] = int64(64 + rng.Intn(256))
		b.IntArray(idxNames[i], idxCount[i])
		buf := make([]byte, idxCount[i]*8)
		for e := int64(0); e < idxCount[i]; e++ {
			binary.LittleEndian.PutUint64(buf[e*8:], uint64(rng.Intn(int(counts[idxTarget[i]]))))
		}
		w.data[idxNames[i]] = buf
		w.full += idxCount[i] * 8
	}

	fb := b.Func("main")
	acc := fb.Var(ir.C(0))
	nLoops := 2 + rng.Intn(3)
	for l := 0; l < nLoops; l++ {
		switch rng.Intn(4) {
		case 0: // sequential read-accumulate + occasional write
			di := rng.Intn(nData)
			fb.Loop(ir.C(0), ir.C(counts[di]), ir.C(1), func(i ir.Expr) {
				v := fb.Load(dataNames[di], i, "")
				fb.Set(acc, ir.Add(ir.R(acc.ID), v))
				if rng.Intn(2) == 0 {
					fb.Store(dataNames[di], i, "", ir.Add(v, ir.C(1)))
				}
			})
		case 1: // strided read — half via a scaled index, half via a
			// stepped loop (the two classifier-equivalent spellings)
			di := rng.Intn(nData)
			stride := int64(2 + rng.Intn(3))
			if rng.Intn(2) == 0 {
				fb.Loop(ir.C(0), ir.C(counts[di]/stride), ir.C(1), func(i ir.Expr) {
					v := fb.Load(dataNames[di], ir.Mul(i, ir.C(stride)), "")
					fb.Set(acc, ir.Add(ir.R(acc.ID), v))
				})
			} else {
				fb.Loop(ir.C(0), ir.C(counts[di]), ir.C(stride), func(i ir.Expr) {
					v := fb.Load(dataNames[di], i, "")
					fb.Set(acc, ir.Add(ir.R(acc.ID), v))
				})
			}
		case 2: // indirect read-modify-write through an index array
			xi := rng.Intn(nIdx)
			tgt := dataNames[idxTarget[xi]]
			fb.Loop(ir.C(0), ir.C(idxCount[xi]), ir.C(1), func(i ir.Expr) {
				idx := fb.Load(idxNames[xi], i, "")
				v := fb.Load(tgt, idx, "")
				fb.Store(tgt, idx, "", ir.Add(v, ir.C(1)))
				fb.Set(acc, ir.Add(ir.R(acc.ID), v))
			})
		default: // data-dependent conditional writes (If-clobbered
			// registers exercise the analyses' invalidation paths)
			di := rng.Intn(nData)
			cut := int64(rng.Intn(1000))
			fb.Loop(ir.C(0), ir.C(counts[di]), ir.C(1), func(i ir.Expr) {
				v := fb.Load(dataNames[di], i, "")
				fb.If(ir.Lt(v, ir.C(cut)), func() {
					fb.Store(dataNames[di], i, "", ir.Add(v, ir.C(3)))
					fb.Set(acc, ir.Add(ir.R(acc.ID), ir.C(1)))
				}, func() {
					fb.Set(acc, ir.Add(ir.R(acc.ID), v))
				})
			})
		}
	}
	b.IntArray("out", 1)
	fb.Store("out", ir.C(0), "", ir.R(acc.ID))
	w.full += 8
	w.prog = b.MustProgram()
	return w
}

// dumpAll flushes and dumps every object.
func dumpAll(t *testing.T, w *randomWorkload, d workload.ObjectDumper) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for _, o := range w.prog.Objects {
		buf, err := d.DumpObject(o.Name)
		if err != nil {
			t.Fatalf("dump %s: %v", o.Name, err)
		}
		out[o.Name] = buf
	}
	return out
}

// TestDifferentialRandomPrograms: for random programs, every far-memory
// system must compute byte-identical final state to native execution —
// prefetching, native-load conversion, eviction hints, fusion, releases,
// selective transmission, and page swapping are all pure optimizations.
func TestDifferentialRandomPrograms(t *testing.T) {
	for seed := uint64(1); seed <= 32; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			w := generate(seed)
			budget := w.FullMemoryBytes() / 3

			type sysDump struct {
				sys   System
				dumps map[string][]byte
			}
			var results []sysDump
			for _, sys := range []System{Native, Mira, FastSwap, Leap} {
				res, err := runAndDump(t, sys, w, budget)
				if err != nil {
					t.Fatalf("%s: %v", sys, err)
				}
				results = append(results, sysDump{sys: sys, dumps: res})
			}
			ref := results[0]
			for _, r := range results[1:] {
				for name, want := range ref.dumps {
					if !bytes.Equal(r.dumps[name], want) {
						t.Fatalf("%s: object %q diverges from native", r.sys, name)
					}
				}
			}
		})
	}
}

// runAndDump executes w on sys and returns all object dumps. It drives the
// run driver directly (harness.Run verifies via the app oracles, which
// random programs don't have).
func runAndDump(t *testing.T, sys System, w *randomWorkload, budget int64) (map[string][]byte, error) {
	return runAndDumpOn(t, sys, w, budget, nil)
}

// runAndDumpOn is runAndDump over the far-node pool co (nil: one node).
func runAndDumpOn(t *testing.T, sys System, w *randomWorkload, budget int64, co *cluster.Options) (map[string][]byte, error) {
	t.Helper()
	var spec session.Spec
	var err error
	switch sys {
	case Native:
		spec = session.Spec{Workload: w, Config: session.Native(w.Program())}
	case Mira:
		var res *planner.Result
		res, err = planner.Plan(w, planner.Options{LocalBudget: budget, MaxIterations: 3, Cluster: co})
		if err == nil {
			spec = session.Spec{Workload: w, Program: res.Program, Config: res.Config, Swap: session.Fixed(planner.SwapPolicy())}
		}
	case FastSwap:
		spec, err = fastswap.Spec(w, fastswap.Options{LocalBudget: budget})
	case Leap:
		spec, err = leap.Spec(w, leap.Options{LocalBudget: budget})
	default:
		err = fmt.Errorf("unsupported %s", sys)
	}
	if err != nil {
		return nil, err
	}
	if co != nil {
		spec.Config.Cluster = co
	}
	s, err := session.Open(spec)
	if err != nil {
		return nil, err
	}
	if _, err := s.Run(); err != nil {
		return nil, err
	}
	if _, err := s.Finish(false); err != nil {
		return nil, err
	}
	return dumpAll(t, w, s.Dumper()), nil
}
