package harness

import (
	"fmt"
	"testing"

	"mira/internal/apps/distagg"
	"mira/internal/apps/seqscan"
	"mira/internal/planner"
	"mira/internal/prefetch"
	"mira/internal/trace"
	"mira/internal/workload"
)

// armFigures is what a caller reads off one run: the compiled arm must
// report the same as the plain run on every field.
type armFigures struct {
	Time                                 int64
	Messages, BytesMoved, BytesEffective int64
	Offloaded                            string
	PlannerSpans                         int
}

func figuresOf(res Result, tr *trace.Tracer) armFigures {
	f := armFigures{Time: int64(res.Time), Messages: res.Messages, BytesMoved: res.BytesMoved,
		BytesEffective: res.BytesEffective}
	if res.PlanResult != nil {
		f.Offloaded = fmt.Sprint(res.PlanResult.Offloaded)
	}
	for _, e := range tr.Events() {
		if e.Cat == "planner" {
			f.PlannerSpans++
		}
	}
	return f
}

// TestCompiledArmIsThePlainRun: the line plane's "compiled" arm executes the
// planner's program as accepted, so with the same options it is the plain
// Mira run — every planner knob, NoBatching and the tracer reach both, and
// no option is dropped on either path. Each row but the first sets one knob
// and must move the plain run off the default row (or, for offload, ship
// something), so no row passes by the knob doing nothing.
func TestCompiledArmIsThePlainRun(t *testing.T) {
	scan := func() workload.Workload { return seqscan.New(seqscan.DefaultConfig()) }
	rows := []struct {
		name   string
		mk     func() workload.Workload
		opts   Options
		traced bool
	}{
		{name: "default", mk: scan},
		{name: "compress-on", mk: scan, opts: Options{Planner: planner.Options{Compress: "on"}}},
		{name: "compress-auto", mk: scan, opts: Options{Planner: planner.Options{Compress: "auto"}}},
		{name: "no-batching", mk: scan, opts: Options{NoBatching: true}},
		{name: "wbq-8", mk: scan, opts: Options{Planner: planner.Options{WritebackQueueLines: 8}}},
		{name: "offload-auto-pool", mk: func() workload.Workload { return distagg.New(distagg.Config{N: 1 << 12, Seed: 3}) },
			opts: Options{Nodes: 4, Replicas: 2, StripeBytes: 4096, Planner: planner.Options{Offload: "auto"}}},
		{name: "traced", mk: scan, traced: true},
	}
	var base armFigures
	for _, row := range rows {
		run := func(arm func(w workload.Workload, opts Options) (Result, error)) armFigures {
			w := row.mk()
			opts := row.opts
			opts.Budget, opts.Verify = w.FullMemoryBytes()/4, true
			if row.traced {
				opts.Trace = trace.New()
			}
			res, err := arm(w, opts)
			if err != nil {
				t.Fatalf("%s: %v", row.name, err)
			}
			return figuresOf(res, opts.Trace)
		}
		plain := run(func(w workload.Workload, opts Options) (Result, error) { return Run(Mira, w, opts) })
		compiled := run(func(w workload.Workload, opts Options) (Result, error) {
			return RunLinePolicy(w, opts, prefetch.Spec{Policy: prefetch.Compiled})
		})
		t.Logf("%s: plain %+v", row.name, plain)
		if compiled != plain {
			t.Errorf("%s: compiled arm %+v, plain run %+v", row.name, compiled, plain)
		}
		switch {
		case row.name == "default":
			base = plain
		case row.opts.Planner.Offload != "":
			if plain.Offloaded == "[]" {
				t.Errorf("%s: nothing offloaded, so the row checks nothing", row.name)
			}
		case plain == base:
			t.Errorf("%s: the knob did not move the plain run off the default row", row.name)
		}
	}
}
