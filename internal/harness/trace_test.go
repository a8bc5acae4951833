package harness

import (
	"bytes"
	"encoding/json"
	"testing"

	"mira/internal/apps/seqscan"
	"mira/internal/trace"
)

// traceRun executes one traced seqscan run and returns the serialized trace
// and metrics.
func traceRun(t *testing.T, sys System) (string, string) {
	t.Helper()
	tr := trace.New()
	w := seqscan.New(seqscan.Config{N: 1 << 13, Seed: 1})
	opts := Options{Budget: w.FullMemoryBytes() / 4, Verify: true, Trace: tr}
	res, err := Run(sys, w, opts)
	if err != nil {
		t.Fatalf("%s: %v", sys, err)
	}
	if res.Failed {
		t.Fatalf("%s failed: %s", sys, res.FailReason)
	}
	var tb, mb bytes.Buffer
	if err := tr.WriteTrace(&tb); err != nil {
		t.Fatal(err)
	}
	if err := tr.Registry().WriteJSON(&mb); err != nil {
		t.Fatal(err)
	}
	return tb.String(), mb.String()
}

// TestTraceDeterminism: two identical runs must serialize byte-identical
// traces and metrics — the event layer is driven entirely by the virtual
// clock, with per-thread buffers merged in a stable order. (The CI
// determinism job additionally runs this test twice in one process, so map
// iteration and scheduling noise across invocations is covered too.)
func TestTraceDeterminism(t *testing.T) {
	for _, sys := range []System{Mira, FastSwap} {
		t1, m1 := traceRun(t, sys)
		t2, m2 := traceRun(t, sys)
		if t1 != t2 {
			t.Fatalf("%s: traces differ across identical runs", sys)
		}
		if m1 != m2 {
			t.Fatalf("%s: metrics differ across identical runs", sys)
		}
	}
}

// TestTraceWellFormed: the emitted files parse as JSON, the trace is in
// Chrome trace-event object format, and the run's data path actually showed
// up in both.
func TestTraceWellFormed(t *testing.T) {
	tj, mj := traceRun(t, Mira)

	var tdoc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string `json:"name"`
			Cat  string `json:"cat"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(tj), &tdoc); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	if tdoc.DisplayTimeUnit != "ns" {
		t.Fatalf("displayTimeUnit %q", tdoc.DisplayTimeUnit)
	}
	cats := map[string]bool{}
	for _, e := range tdoc.TraceEvents {
		cats[e.Cat] = true
	}
	for _, want := range []string{"rt", "net", "planner"} {
		if !cats[want] {
			t.Fatalf("no %q events in trace (cats: %v)", want, cats)
		}
	}

	var mdoc struct {
		Counters   map[string]int64           `json:"counters"`
		Histograms map[string]json.RawMessage `json:"histograms"`
	}
	if err := json.Unmarshal([]byte(mj), &mdoc); err != nil {
		t.Fatalf("metrics not valid JSON: %v", err)
	}
	if mdoc.Counters["net.ops{link=net.node0}"] == 0 {
		t.Fatalf("no transport ops counted: %v", mdoc.Counters)
	}
	found := false
	for name := range mdoc.Counters {
		if len(name) > 10 && name[:10] == "cache.hit{" && mdoc.Counters[name] > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no cache hits counted: %v", mdoc.Counters)
	}
}

// TestTraceDisabledIsInert: with no tracer attached nothing changes, and a
// nil tracer's writers emit valid empty documents.
func TestTraceDisabledIsInert(t *testing.T) {
	w := seqscan.New(seqscan.Config{N: 1 << 10, Seed: 1})
	res, err := Run(Mira, w, Options{Budget: w.FullMemoryBytes() / 4, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed {
		t.Fatal(res.FailReason)
	}
	var tr *trace.Tracer
	var tb bytes.Buffer
	if err := tr.WriteTrace(&tb); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(tb.Bytes(), &doc); err != nil {
		t.Fatalf("nil tracer output not JSON: %v", err)
	}
}
