package mtrun

import (
	"bytes"
	"testing"

	"mira/internal/apps/dataframe"
	"mira/internal/apps/gpt2"
	"mira/internal/cache"
	"mira/internal/farmem"
	"mira/internal/ir"
	"mira/internal/netmodel"
	"mira/internal/rt"
	"mira/internal/sim"
	"mira/internal/trace"
)

func TestReadOnlyScalingShapes(t *testing.T) {
	w := gpt2.New(gpt2.Config{Layers: 6, DModel: 64, DFF: 256, SeqLen: 16, Seed: 5})
	budget := w.FullMemoryBytes()

	timeOf := func(mode Mode, threads int) sim.Duration {
		res, err := ReadOnlyScaling(mode, w, budget, threads)
		if err != nil {
			t.Fatalf("%s x%d: %v", mode, threads, err)
		}
		if res.Time <= 0 {
			t.Fatalf("%s x%d: zero time", mode, threads)
		}
		if err := res.Verify(); err != nil {
			t.Errorf("%s x%d: %v", mode, threads, err)
		}
		return res.Time
	}

	speedups := map[Mode]float64{}
	for _, mode := range []Mode{MiraPrivate, MiraShared, FastSwapShared} {
		t1 := timeOf(mode, 1)
		t4 := timeOf(mode, 4)
		speedups[mode] = float64(t1) / float64(t4)
		t.Logf("%s: 4-thread speedup %.2fx (t1=%v t4=%v)", mode, speedups[mode], t1, t4)
		if speedups[mode] < 1.0 {
			t.Errorf("%s: adding threads slowed fixed work down (%.2fx)", mode, speedups[mode])
		}
	}

	// The paper's Fig. 24 shape: Mira scales better than FastSwap.
	if speedups[MiraPrivate] <= speedups[FastSwapShared] {
		t.Errorf("Mira scaling (%.2f) not above FastSwap (%.2f)",
			speedups[MiraPrivate], speedups[FastSwapShared])
	}
}

// TestFig24UnoptSeparation: on the Fig. 24 driver, Mira-unopt (every
// thread's replica in one conservative shared section set) must be
// measurably slower than Mira (private per-thread sections) once threads
// interleave — the gap is emergent cross-thread eviction interference,
// which the old sequential fair-share model could not produce.
func TestFig24UnoptSeparation(t *testing.T) {
	w := gpt2.New(gpt2.Config{Layers: 6, DModel: 64, DFF: 256, SeqLen: 16, Seed: 5})
	budget := w.FullMemoryBytes()
	priv, err := ReadOnlyScaling(MiraPrivate, w, budget, 4)
	if err != nil {
		t.Fatal(err)
	}
	unopt, err := ReadOnlyScaling(MiraShared, w, budget, 4)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("4 threads: mira %v, mira-unopt %v", priv.Time, unopt.Time)
	if unopt.Time <= priv.Time {
		t.Errorf("mira-unopt (%v) not slower than mira (%v) at 4 threads", unopt.Time, priv.Time)
	}
}

func TestSharedWriteFilterCorrectAndScales(t *testing.T) {
	cfg := dataframe.Config{Rows: 1 << 14, Seed: 7}
	budget := int64(1<<14) * 8 * 5 / 3 // about a third of the table

	var oneThread, fourThreads sim.Duration
	for _, threads := range []int{1, 4} {
		res, err := SharedWriteFilter(MiraPrivate, cfg, budget, threads)
		if err != nil {
			t.Fatalf("mira x%d: %v", threads, err)
		}
		if threads == 1 {
			oneThread = res.Time
		} else {
			fourThreads = res.Time
		}
	}
	// Four threads each do a quarter of the work; even with shared-write
	// conservatism the fork-join time must drop.
	if fourThreads >= oneThread {
		t.Errorf("shared-write filter did not scale: 1T %v, 4T %v", oneThread, fourThreads)
	}

	for _, mode := range []Mode{FastSwapShared, AIFMShared} {
		if _, err := SharedWriteFilter(mode, cfg, budget, 4); err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
	}
}

// TestSharedWriteFilterVerifies: the interleaved partitioned filter leaves
// the oracle's result vector in far memory, in every mode.
func TestSharedWriteFilterVerifies(t *testing.T) {
	cfg := dataframe.Config{Rows: 4096, Seed: 11}
	budget := int64(4096) * 8 * 2
	for _, mode := range []Mode{MiraPrivate, FastSwapShared, AIFMShared} {
		res, err := SharedWriteFilter(mode, cfg, budget, 4)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if err := res.Verify(); err != nil {
			t.Errorf("%s: %v", mode, err)
		}
		// The budget holds two of five columns: every mode misses to its
		// pool, and the group reports what crossed the link.
		if res.Messages == 0 || res.BytesMoved == 0 {
			t.Errorf("%s: %d messages, %d bytes moved; want both > 0", mode, res.Messages, res.BytesMoved)
		}
	}
}

func TestInvalidThreadCount(t *testing.T) {
	w := gpt2.New(gpt2.Config{Layers: 1, DModel: 16, DFF: 32, SeqLen: 8, Seed: 1})
	if _, err := ReadOnlyScaling(MiraPrivate, w, 1<<20, 0); err == nil {
		t.Fatal("zero threads accepted")
	}
	if _, err := SharedWriteFilter(MiraPrivate, dataframe.Config{Rows: 128, Seed: 1}, 1<<20, 0); err == nil {
		t.Fatal("zero threads accepted")
	}
}

func TestReadOnlyScalingRejectsUnsupportedMode(t *testing.T) {
	w := gpt2.New(gpt2.Config{Layers: 1, DModel: 16, DFF: 32, SeqLen: 4, Seed: 1})
	if _, err := ReadOnlyScaling(AIFMShared, w, w.FullMemoryBytes(), 2); err == nil {
		t.Fatal("aifm accepted for read-only scaling")
	}
	if _, err := ReadOnlyScaling(Mode("bogus"), w, w.FullMemoryBytes(), 2); err == nil {
		t.Fatal("bogus mode accepted")
	}
}

func TestSharedWriteFilterRejectsUnsupportedMode(t *testing.T) {
	cfg := dataframe.Config{Rows: 256, Seed: 1}
	if _, err := SharedWriteFilter(Mode("bogus"), cfg, 1<<20, 2); err == nil {
		t.Fatal("bogus mode accepted")
	}
}

// Emergent contention: with n interleaved threads sharing the link (and,
// for swap, the fault lock and pool), one thread's single-rep time must
// grow with the thread count for every mode.
func TestContentionMonotone(t *testing.T) {
	w := gpt2.New(gpt2.Config{Layers: 4, DModel: 32, DFF: 128, SeqLen: 8, Seed: 2})
	budget := w.FullMemoryBytes() / 2
	for _, mode := range []Mode{MiraPrivate, FastSwapShared} {
		perRep := func(threads int) float64 {
			res, err := ReadOnlyScaling(mode, w, budget, threads)
			if err != nil {
				t.Fatalf("%s x%d: %v", mode, threads, err)
			}
			if err := res.Verify(); err != nil {
				t.Errorf("%s x%d: %v", mode, threads, err)
			}
			reps := DefaultReps / threads
			if reps < 1 {
				reps = 1
			}
			return float64(res.Time) / float64(reps)
		}
		if t1, t8 := perRep(1), perRep(8); t8 <= t1 {
			t.Errorf("%s: per-rep time did not grow under contention: %v vs %v", mode, t1, t8)
		}
	}
}

// interferenceRuntime builds a runtime with one direct-mapped section half
// the size of its only object, so an element in the object's lower half
// aliases the element one section-size above it.
func interferenceRuntime(t *testing.T) (*rt.Runtime, *ir.Program) {
	t.Helper()
	const elems = 1 << 12 // 32 KiB object, 16 KiB section
	prog := &ir.Program{
		Name:    "interference",
		Entry:   "main",
		Objects: []*ir.Object{{Name: "data", ElemBytes: 8, Count: elems}},
		Funcs:   []*ir.Func{{Name: "main", Body: []ir.Stmt{&ir.Return{}}}},
	}
	cfg := rt.Config{
		LocalBudget: elems * 8 / 2,
		Sections: []rt.SectionSpec{
			{Cache: cache.Config{Name: "shared", Structure: cache.Direct, LineBytes: 64, SizeBytes: elems * 8 / 2}},
		},
		Placements: map[string]rt.Placement{"data": {Kind: rt.PlaceSection, Section: 0}},
		Net:        netmodel.DefaultConfig(),
	}
	r, err := rt.New(cfg, farmem.NewNode(farmem.DefaultNodeConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Bind(prog); err != nil {
		t.Fatal(err)
	}
	return r, prog
}

// scanHalf drives raw accesses to one half of the interference object from
// a scheduler thread, yielding before every access the way the executor
// does.
func scanHalf(r *rt.Runtime, th *sim.Thread, half int64) error {
	const elems = 1 << 12
	field := ir.Field{Offset: 0, Bytes: 8}
	var buf [8]byte
	for e := half * elems / 2; e < (half+1)*elems/2; e++ {
		th.Yield()
		r.SetActiveTid(th.ID())
		if err := r.Access(th.Clock(), "data", e, field, buf[:], false, rt.AccessOpts{}); err != nil {
			return err
		}
	}
	return nil
}

// TestInterleavedEvictionInterference: two threads scanning *disjoint*
// halves of one object through a shared direct-mapped section must evict
// each other's lines — the halves alias slot-for-slot, so the interleaving
// turns one miss per line into a miss per access. A single thread scanning
// one half (the same per-thread work) sees only capacity evictions. This is
// the §4.6 effect the sequential fair-share model could not produce.
func TestInterleavedEvictionInterference(t *testing.T) {
	// Baseline: one thread, one half.
	r1, _ := interferenceRuntime(t)
	g1 := sim.NewThreadGroup(1, 0)
	s1 := sim.NewScheduler(g1)
	s1.Spawn(func(th *sim.Thread) error { return scanHalf(r1, th, 0) })
	if err := s1.Run(); err != nil {
		t.Fatal(err)
	}
	_, _, baseEvicts := r1.TidStats(0, 0)

	// Interleaved: two threads, disjoint halves, same shared section.
	r2, _ := interferenceRuntime(t)
	g2 := sim.NewThreadGroup(2, 0)
	s2 := sim.NewScheduler(g2)
	for i := 0; i < 2; i++ {
		half := int64(i)
		s2.Spawn(func(th *sim.Thread) error { return scanHalf(r2, th, half) })
	}
	if err := s2.Run(); err != nil {
		t.Fatal(err)
	}
	for tid := 0; tid < 2; tid++ {
		hits, misses, evicts := r2.TidStats(0, tid)
		t.Logf("tid %d: hits=%d misses=%d evicts=%d (1-thread baseline evicts=%d)", tid, hits, misses, evicts, baseEvicts)
		if evicts <= baseEvicts {
			t.Errorf("tid %d: per-tid evicts %d not above single-thread baseline %d", tid, evicts, baseEvicts)
		}
	}
}

// mtTraceRun serializes one traced 4-thread run's trace and metrics.
func mtTraceRun(t *testing.T, mode Mode) (string, string) {
	t.Helper()
	tr := trace.New()
	w := gpt2.New(gpt2.Config{Layers: 2, DModel: 32, DFF: 128, SeqLen: 8, Seed: 9})
	res, err := ReadOnlyScalingTraced(mode, w, w.FullMemoryBytes()/2, 4, tr)
	if err != nil {
		t.Fatalf("%s: %v", mode, err)
	}
	if err := res.Verify(); err != nil {
		t.Fatalf("%s: %v", mode, err)
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

// TestMTTraceDeterminism: two identical 4-thread interleaved runs must
// serialize byte-identical traces and metrics — the scheduler's
// (virtual time, thread id) order is the only source of interleaving, so
// goroutine scheduling and map iteration must never leak into results. (The
// CI determinism job runs this twice in one process as well.)
func TestMTTraceDeterminism(t *testing.T) {
	for _, mode := range []Mode{MiraPrivate, MiraShared, FastSwapShared} {
		t1, m1 := mtTraceRun(t, mode)
		t2, m2 := mtTraceRun(t, mode)
		if t1 != t2 {
			t.Fatalf("%s: traces differ across identical runs", mode)
		}
		if m1 != m2 {
			t.Fatalf("%s: metrics differ across identical runs", mode)
		}
		if len(t1) == 0 {
			t.Fatalf("%s: empty trace", mode)
		}
	}
}
