package harness

import (
	"mira/internal/analysis"
	"mira/internal/exec"
	"mira/internal/ir"
	"mira/internal/rt"
	"mira/internal/session"
	"mira/internal/sim"
	"mira/internal/workload"
)

// recordTape runs w's training input once on native memory and returns its
// access tape: every element the program reads or writes, in program order,
// as phases with contiguous runs merged. It is the future access sequence a
// programmed prefetcher walks (3PO records it on a training run of the
// program). A workload without a training input (trainer) is recorded on
// its own input: a tape of the very run it then serves, the arm's ceiling
// rather than a deployable prefetch program.
//
// The tape stops at maxTapePhases phases; a truncated tape only prefetches
// less.
func recordTape(w workload.Workload) ([]analysis.Phase, error) {
	if t, ok := w.(trainer); ok {
		w = t.Training()
	}
	prog := w.Program()
	s, err := session.Open(session.Spec{Workload: w, Config: session.Native(prog)})
	if err != nil {
		return nil, err
	}
	defer s.Close()
	// Embedding the runtime as an exec.Backend hides its handles, so the
	// executor names the object of every access.
	t := &tape{Backend: s.RT, prog: prog}
	ex, err := exec.New(prog, t, exec.Options{Params: w.Params()})
	if err != nil {
		return nil, err
	}
	if _, err := ex.Run(s.Clock()); err != nil {
		return nil, err
	}
	return t.phases, nil
}

// trainer is a workload with a training input: the same program on another
// input, which every app in internal/apps has.
type trainer interface {
	Training() workload.Workload
}

// tape is a native runtime seen through exec.Backend, each access taped.
type tape struct {
	exec.Backend
	prog   *ir.Program
	phases []analysis.Phase
}

// maxTapePhases bounds a tape at 80 MiB. Interleaved objects break the runs
// up, so a tape holds more phases than any one plane's program holds units
// (analysis.LowerPhases caps those): dataframe, the longest of the nine
// apps, tapes 1.13 M phases.
const maxTapePhases = 1 << 21

func (t *tape) Access(clk *sim.Clock, name string, elem int64, field ir.Field, buf []byte, write bool, opts rt.AccessOpts) error {
	t.add(name, elem, 1)
	return t.Backend.Access(clk, name, elem, field, buf, write, opts)
}

func (t *tape) BulkRead(clk *sim.Clock, name string, elem int64, buf []byte) error {
	t.add(name, elem, t.elems(name, len(buf)))
	return t.Backend.BulkRead(clk, name, elem, buf)
}

func (t *tape) BulkWrite(clk *sim.Clock, name string, elem int64, buf []byte) error {
	t.add(name, elem, t.elems(name, len(buf)))
	return t.Backend.BulkWrite(clk, name, elem, buf)
}

// elems is the number of name's elements n bytes from an element on span.
func (t *tape) elems(name string, n int) int64 {
	o, _ := t.prog.Object(name) // exec.New validated every name it runs
	return int64((n + o.ElemBytes - 1) / o.ElemBytes)
}

// add tapes n elements of obj from elem on. A single element repeating the
// one the tape ended on is dropped (it lowers to the unit just taped); a run
// that continues the last phase's stride extends it, and the second element
// of a phase sets its stride.
func (t *tape) add(obj string, elem, n int64) {
	if k := len(t.phases) - 1; k >= 0 && t.phases[k].Object == obj {
		p := &t.phases[k]
		last := p.Start + p.Stride*(p.Count-1)
		if n == 1 && elem == last {
			return
		}
		stride := p.Stride
		if p.Count == 1 {
			stride = elem - last
		}
		if elem == last+stride && (n == 1 || stride == 1) {
			p.Stride = stride
			p.Count += n
			return
		}
	}
	if len(t.phases) < maxTapePhases {
		t.phases = append(t.phases, analysis.Phase{Object: obj, Start: elem, Stride: 1, Count: n})
	}
}
