// Package apps_test runs the cross-system integration matrix: every
// application must compute identical (verified) results on every far-memory
// system, and the paper's headline ordering must hold at moderate local
// memory.
package apps_test

import (
	"bytes"
	"testing"

	"mira/internal/apps/arraysum"
	"mira/internal/apps/dataframe"
	"mira/internal/apps/distagg"
	"mira/internal/apps/gpt2"
	"mira/internal/apps/graphtraverse"
	"mira/internal/apps/mcf"
	"mira/internal/apps/seqscan"
	"mira/internal/apps/stridescan"
	"mira/internal/harness"
	"mira/internal/session"
	"mira/internal/workload"
)

// smallWorkloads returns quick-running instances of every app.
func smallWorkloads() []workload.Workload {
	return []workload.Workload{
		arraysum.New(arraysum.Config{N: 8192, Seed: 1}),
		graphtraverse.New(graphtraverse.Config{Edges: 2048, Nodes: 2048, Passes: 1, Seed: 9}),
		mcf.New(mcf.Config{Arcs: 2048, Nodes: 512, Iterations: 8, WalkLen: 32, Seed: 42}),
		dataframe.New(dataframe.Config{Rows: 8192, Seed: 2014}),
		gpt2.New(gpt2.Config{Layers: 2, DModel: 32, DFF: 64, SeqLen: 16, Seed: 5}),
		seqscan.New(seqscan.Config{N: 4096, Seed: 1}),
		stridescan.New(stridescan.Config{N: 2048, Seed: 1}),
	}
}

// allWorkloads is smallWorkloads plus the two distributed-aggregation apps
// built for the offload engine: all nine.
func allWorkloads() []workload.Workload {
	return append(smallWorkloads(),
		distagg.New(distagg.Config{N: 4096, Mode: "agg", Seed: 3}),
		distagg.New(distagg.Config{N: 4096, Mode: "filter", K: 3, Seed: 3}),
	)
}

func TestEveryAppVerifiesOnEverySystem(t *testing.T) {
	for _, w := range smallWorkloads() {
		budget := w.FullMemoryBytes() / 3
		for _, sys := range []harness.System{harness.Native, harness.Mira, harness.MiraSwap, harness.FastSwap, harness.Leap, harness.AIFM} {
			if sys == harness.AIFM && w.Name() == "gpt2" {
				continue // the paper excludes AIFM from GPT-2 (no tensor ops)
			}
			res, err := harness.Run(sys, w, harness.Options{Budget: budget, Verify: true})
			if err != nil {
				t.Errorf("%s on %s: %v", w.Name(), sys, err)
				continue
			}
			if res.Failed {
				t.Logf("%s on %s: failed to execute (%s) — allowed for AIFM", w.Name(), sys, res.FailReason)
				if sys != harness.AIFM {
					t.Errorf("%s on %s must not fail", w.Name(), sys)
				}
				continue
			}
			if res.Time <= 0 {
				t.Errorf("%s on %s: zero time", w.Name(), sys)
			}
		}
	}
}

func TestMiraBeatsSwapBaselinesEverywhere(t *testing.T) {
	for _, w := range smallWorkloads() {
		budget := w.FullMemoryBytes() / 3
		mira, err := harness.Run(harness.Mira, w, harness.Options{Budget: budget})
		if err != nil {
			t.Fatalf("%s mira: %v", w.Name(), err)
		}
		fs, err := harness.Run(harness.FastSwap, w, harness.Options{Budget: budget})
		if err != nil {
			t.Fatalf("%s fastswap: %v", w.Name(), err)
		}
		if mira.Time > fs.Time {
			t.Errorf("%s: Mira (%v) slower than FastSwap (%v) at 1/3 memory",
				w.Name(), mira.Time, fs.Time)
		} else {
			t.Logf("%s: Mira %v vs FastSwap %v (%.1fx)", w.Name(), mira.Time, fs.Time,
				float64(fs.Time)/float64(mira.Time))
		}
	}
}

// initLog records the image every InitObject call was handed, in order.
type initLog struct {
	names  []string
	images [][]byte
}

func (l *initLog) InitObject(name string, data []byte) error {
	l.names = append(l.names, name)
	l.images = append(l.images, data)
	return nil
}

// TestAppsGenerateTheirDataOnce: every app builds its initial data on the
// first Init of a Workload and hands every later Init the very same images,
// in the same order — the second Init generates nothing — and two runtimes
// initialised from one Workload hold byte-equal objects.
func TestAppsGenerateTheirDataOnce(t *testing.T) {
	for _, w := range allWorkloads() {
		var first, second initLog
		if err := w.Init(&first); err != nil {
			t.Fatal(err)
		}
		if err := w.Init(&second); err != nil {
			t.Fatal(err)
		}
		if len(first.names) == 0 || len(first.names) != len(second.names) {
			t.Fatalf("%s: %d objects initialised, then %d", w.Name(), len(first.names), len(second.names))
		}
		for i, name := range first.names {
			if second.names[i] != name {
				t.Errorf("%s: Init order differs: %v then %v", w.Name(), first.names, second.names)
				break
			}
			if &first.images[i][0] != &second.images[i][0] {
				t.Errorf("%s: object %q was generated again for the second Init", w.Name(), name)
			}
		}

		var dumps [2]map[string][]byte
		for i := range dumps {
			cfg, err := session.SwapOnly(w.Program(), w.FullMemoryBytes()/2)
			if err != nil {
				t.Fatal(err)
			}
			s, err := session.Open(session.Spec{Workload: w, Config: cfg, Swap: session.NoPrefetch})
			if err != nil {
				t.Fatal(err)
			}
			if dumps[i], err = s.Dump(); err != nil {
				t.Fatal(err)
			}
			s.Close()
		}
		for _, name := range first.names {
			if len(dumps[0][name]) == 0 || !bytes.Equal(dumps[0][name], dumps[1][name]) {
				t.Errorf("%s: object %q differs between two runtimes", w.Name(), name)
			}
		}
	}
}

// TestRewritingRunLeavesTheImageAlone: a seqscan run rewrites every record in
// far memory, and the session after it — whose far heap is the first one's,
// recycled — must start from what a workload nobody has run yet generates:
// InitObject copied out of the image, nothing wrote back into it, and the
// recycled heap came back zeroed.
func TestRewritingRunLeavesTheImageAlone(t *testing.T) {
	cfg := seqscan.Config{N: 4096, Seed: 1}
	w := seqscan.New(cfg)
	pristine := append([]byte(nil), seqscan.New(cfg).Data()...)
	open := func() *session.Session {
		t.Helper()
		rc, err := session.SwapOnly(w.Program(), w.FullMemoryBytes()/2)
		if err != nil {
			t.Fatal(err)
		}
		s, err := session.Open(session.Spec{Workload: w, Config: rc, Swap: session.NoPrefetch})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	first := open()
	if _, err := first.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := first.Finish(true); err != nil {
		t.Fatal(err)
	}
	after, err := first.Dump()
	if err != nil {
		t.Fatal(err)
	}
	changed := 0
	for i := 0; i < int(cfg.N); i++ {
		rec := i * seqscan.RecBytes
		if !bytes.Equal(after["recs"][rec+8:rec+16], pristine[rec+8:rec+16]) {
			changed++
		}
	}
	// Every record is stored to; the one whose key is 0 gets its old value.
	if changed < int(cfg.N)-1 {
		t.Fatalf("the run changed %d of %d records: the test needs them all rewritten", changed, cfg.N)
	}
	first.Close()

	second := open()
	defer second.Close()
	start, err := second.Dump()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(start["recs"], pristine) {
		t.Fatal("the second session was not initialised with the pristine records")
	}
	if !bytes.Equal(w.Data(), pristine) {
		t.Fatal("the workload's image changed under the first run")
	}
	for name, d := range start {
		if name == "recs" {
			continue
		}
		for i, v := range d {
			if v != 0 {
				t.Fatalf("object %q byte %d = %#x at the start of the second session, want 0", name, i, v)
			}
		}
	}
}
