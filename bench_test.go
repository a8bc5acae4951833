// Benchmark harness: one testing.B benchmark per evaluation figure in the
// paper (§6). Each benchmark regenerates its figure at Quick scale and
// reports the figure's headline quantity as a custom metric, so
//
//	go test -bench=. -benchmem
//
// reproduces the entire evaluation and prints the shape-defining numbers.
// cmd/mira-bench renders the same figures as full tables (use -scale full
// for figure-quality sweeps).
package mira

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"
)

// benchFigure regenerates one figure per iteration and lets report extract
// a metric from the last result.
func benchFigure(b *testing.B, id string, report func(*Figure, *testing.B)) {
	b.Helper()
	var fig *Figure
	for i := 0; i < b.N; i++ {
		var err error
		fig, err = GenerateFigure(id, FigureQuick)
		if err != nil {
			b.Fatal(err)
		}
	}
	if report != nil && fig != nil {
		report(fig, b)
	}
}

// seriesPoint fetches series y at the given x (0 if absent).
func seriesPoint(f *Figure, name string, x float64) float64 {
	for _, s := range f.Series {
		if s.Name != name {
			continue
		}
		for i, xv := range s.X {
			if xv == x {
				return s.Y[i]
			}
		}
	}
	return 0
}

// speedupOver reports series a's advantage over series b at x.
func speedupOver(f *Figure, a, b string, x float64) float64 {
	pb := seriesPoint(f, b, x)
	if pb == 0 {
		return 0
	}
	return seriesPoint(f, a, x) / pb
}

func BenchmarkFig05_GraphOverall(b *testing.B) {
	benchFigure(b, "fig5", func(f *Figure, b *testing.B) {
		b.ReportMetric(speedupOver(f, "mira", "fastswap", 0.25), "mira/fastswap@25%")
		b.ReportMetric(speedupOver(f, "mira", "leap", 0.25), "mira/leap@25%")
	})
}

func BenchmarkFig06_TechniqueEffect(b *testing.B) {
	benchFigure(b, "fig6", func(f *Figure, b *testing.B) {
		s := f.Series[0]
		b.ReportMetric(s.Y[len(s.Y)-1]/s.Y[0], "full-mira/swap")
	})
}

func BenchmarkFig07_Separation(b *testing.B) {
	benchFigure(b, "fig7", func(f *Figure, b *testing.B) {
		b.ReportMetric(speedupOver(f, "mira", "mira-swap", 0.25), "separated/joint@25%")
	})
}

func BenchmarkFig08_MissRate(b *testing.B) {
	benchFigure(b, "fig8", func(f *Figure, b *testing.B) {
		joint := seriesPoint(f, "joint", 0.25)
		sep := seriesPoint(f, "separated", 0.25)
		if joint > 0 {
			b.ReportMetric(100*(joint-sep)/joint, "miss-drop-%@25%")
		}
	})
}

func BenchmarkFig09_LineSize(b *testing.B)     { benchFigure(b, "fig9", nil) }
func BenchmarkFig10_Structure(b *testing.B)    { benchFigure(b, "fig10", nil) }
func BenchmarkFig11_SizeSampling(b *testing.B) { benchFigure(b, "fig11", nil) }
func BenchmarkFig12_ILPPartition(b *testing.B) { benchFigure(b, "fig12", nil) }

func BenchmarkFig15_PrefetchHints(b *testing.B) {
	benchFigure(b, "fig15", func(f *Figure, b *testing.B) {
		b.ReportMetric(speedupOver(f, "mira+pf+hints", "mira-no-pf-no-hints", 0.25), "pf+hints-gain@25%")
		b.ReportMetric(speedupOver(f, "mira+pf+hints", "leap", 0.25), "mira/leap@25%")
	})
}

func BenchmarkFig16_DataFrame(b *testing.B) {
	benchFigure(b, "fig16", func(f *Figure, b *testing.B) {
		b.ReportMetric(speedupOver(f, "mira", "fastswap", 0.5), "mira/fastswap@50%")
	})
}

func BenchmarkFig17_GPT2(b *testing.B) {
	benchFigure(b, "fig17", func(f *Figure, b *testing.B) {
		quarter := seriesPoint(f, "mira", 0.25)
		full := seriesPoint(f, "mira", 1.0)
		if full > 0 {
			b.ReportMetric(quarter/full, "mira-flatness-25%/100%")
		}
	})
}

func BenchmarkFig18_MCF(b *testing.B) {
	benchFigure(b, "fig18", func(f *Figure, b *testing.B) {
		b.ReportMetric(speedupOver(f, "mira", "fastswap", 0.25), "mira/fastswap@25%")
	})
}

func BenchmarkFig19_RuntimeOverhead(b *testing.B) {
	benchFigure(b, "fig19", func(f *Figure, b *testing.B) {
		// Graph example at index 1: Mira vs AIFM at full memory.
		b.ReportMetric(speedupOver(f, "mira", "aifm", 1), "mira/aifm@100%mem")
	})
}

func BenchmarkFig20_Metadata(b *testing.B) {
	benchFigure(b, "fig20", func(f *Figure, b *testing.B) {
		mira := seriesPoint(f, "mira", 1)
		aifm := seriesPoint(f, "aifm", 1)
		if mira > 0 {
			b.ReportMetric(aifm/mira, "aifm/mira-metadata(graph)")
		}
	})
}

func BenchmarkFig21_Breakdown(b *testing.B) { benchFigure(b, "fig21", nil) }

func BenchmarkFig22_Selective(b *testing.B) {
	benchFigure(b, "fig22", func(f *Figure, b *testing.B) {
		b.ReportMetric(speedupOver(f, "mira+selective", "mira-no-selective", 0.5), "selective-gain@50%")
	})
}

func BenchmarkFig23_Batching(b *testing.B) {
	benchFigure(b, "fig23", func(f *Figure, b *testing.B) {
		b.ReportMetric(speedupOver(f, "mira+batching", "mira-no-batching", 0.25), "batching-gain@25%")
	})
}

func BenchmarkFig24_MTReadOnly(b *testing.B) {
	benchFigure(b, "fig24", func(f *Figure, b *testing.B) {
		b.ReportMetric(seriesPoint(f, "mira", 4), "mira-speedup@4T")
		b.ReportMetric(seriesPoint(f, "fastswap", 4), "fastswap-speedup@4T")
	})
}

func BenchmarkFig25_MTShared(b *testing.B) {
	benchFigure(b, "fig25", func(f *Figure, b *testing.B) {
		b.ReportMetric(seriesPoint(f, "mira", 4), "mira-speedup@4T")
	})
}

func BenchmarkStat_AnalysisScope(b *testing.B) { benchFigure(b, "scope", nil) }
func BenchmarkStat_ProfilingOverhead(b *testing.B) {
	benchFigure(b, "scope", func(f *Figure, b *testing.B) {
		s := f.Series[0]
		// The last three stats are profiling-overhead percentages.
		var maxPct float64
		for i := len(s.Y) - 3; i < len(s.Y); i++ {
			if s.Y[i] > maxPct {
				maxPct = s.Y[i]
			}
		}
		b.ReportMetric(maxPct, "max-profiling-overhead-%")
	})
}

// ExamplePlan demonstrates the public API end to end (also acts as a doc
// test).
func ExamplePlan() {
	w := NewGraphWorkload(GraphConfig{Edges: 2048, Nodes: 2048, Passes: 1, Seed: 1})
	res, err := Plan(w, PlanOptions{LocalBudget: w.FullMemoryBytes() / 4, MaxIterations: 2})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("improved:", res.FinalTime < res.BaselineTime)
	// Output: improved: true
}

// BenchmarkAblation_Offload measures §4.8's automatic function offloading
// on a data-heavy scan (an extension figure; the paper has no dedicated
// offload plot).
func BenchmarkAblation_Offload(b *testing.B) {
	benchFigure(b, "offload", func(f *Figure, b *testing.B) {
		b.ReportMetric(speedupOver(f, "mira+offload", "mira-no-offload", 0.25), "offload-gain@25%")
	})
}

// BenchmarkAblation_Adapt measures §3's input adaptation: a compilation
// trained on a sparse-filter input is evaluated on shifted inputs; the
// adapted series must never fall below the stale one (Adapt keeps the
// better compilation), and on this workload the trained plan generalizes —
// Fig. 16's train/test finding.
func BenchmarkAblation_Adapt(b *testing.B) {
	benchFigure(b, "adapt", func(f *Figure, b *testing.B) {
		b.ReportMetric(speedupOver(f, "mira-adapt", "mira-stale (no adaptation)", 0.9), "adapt/stale@0.9")
	})
}

// BenchmarkAblation_ILP compares §4.3's sampled-curve ILP section split
// against equal and footprint-proportional splits of the same budget.
func BenchmarkAblation_ILP(b *testing.B) {
	benchFigure(b, "ilp", func(f *Figure, b *testing.B) {
		s := f.Series[0]
		if len(s.Y) == 3 && s.Y[1] > 0 {
			b.ReportMetric(s.Y[0]/s.Y[1], "ilp/equal-split")
		}
	})
}

// ---- Vectored-I/O batching trajectory (BENCH_batching.json) ----

// batchRunRecord is one (app, system, batching) measurement.
type batchRunRecord struct {
	SimTimeNs  int64   `json:"sim_time_ns"`
	SimTime    string  `json:"sim_time"`
	Messages   int64   `json:"messages"`
	BytesMoved int64   `json:"bytes_moved"`
	BatchHist  []int64 `json:"batch_hist"` // power-of-two piece-count buckets: 1,2,4,...,128+
}

// batchAppRecord pairs the batching-on/off runs of one system on one app.
type batchAppRecord struct {
	Batching         batchRunRecord `json:"batching"`
	NoBatching       batchRunRecord `json:"no_batching"`
	TimeReductionPct float64        `json:"time_reduction_pct"`
	MessageRatio     float64        `json:"message_ratio"`
}

func batchMeasure(t *testing.T, sys System, w Workload, noBatching bool) batchRunRecord {
	t.Helper()
	res, err := Run(sys, w, RunOptions{
		Budget:     int64(float64(w.FullMemoryBytes()) * 0.25),
		Verify:     true,
		NoBatching: noBatching,
	})
	if err != nil {
		t.Fatalf("%s %s (noBatching=%v): %v", w.Name(), sys, noBatching, err)
	}
	if res.Failed {
		t.Fatalf("%s %s (noBatching=%v): failed to execute: %s", w.Name(), sys, noBatching, res.FailReason)
	}
	return batchRunRecord{
		SimTimeNs:  int64(res.Time),
		SimTime:    res.Time.String(),
		Messages:   res.Messages,
		BytesMoved: res.BytesMoved,
		BatchHist:  append([]int64(nil), res.Net.BatchHist[:]...),
	}
}

// TestBenchBatching measures the vectored-I/O data path (doorbell-batched
// prefetch + async write-back) against the unbatched per-line path on the
// sequential and strided scan apps, emits BENCH_batching.json for future
// PRs to diff, and gates the batching win: simulated completion time must
// drop >= 15% and transport messages >= 2x on both apps. CI runs this as
// the benchmark smoke job.
func TestBenchBatching(t *testing.T) {
	apps := []Workload{
		NewSeqScanWorkload(SeqScanConfig{}),
		NewStrideScanWorkload(StrideScanConfig{}),
	}
	out := map[string]map[string]batchAppRecord{}
	for _, w := range apps {
		perSys := map[string]batchAppRecord{}
		for _, sys := range []System{SystemMira, SystemLeap} {
			on := batchMeasure(t, sys, w, false)
			off := batchMeasure(t, sys, w, true)
			rec := batchAppRecord{Batching: on, NoBatching: off}
			if off.SimTimeNs > 0 {
				rec.TimeReductionPct = 100 * float64(off.SimTimeNs-on.SimTimeNs) / float64(off.SimTimeNs)
			}
			if on.Messages > 0 {
				rec.MessageRatio = float64(off.Messages) / float64(on.Messages)
			}
			perSys[string(sys)] = rec
			t.Logf("%s on %s: %s -> %s (%.1f%%), %d -> %d messages (%.1fx)",
				w.Name(), sys, off.SimTime, on.SimTime, rec.TimeReductionPct,
				off.Messages, on.Messages, rec.MessageRatio)
		}
		out[w.Name()] = perSys

		mira := perSys[string(SystemMira)]
		if mira.TimeReductionPct < 15 {
			t.Errorf("%s: batching cuts simulated time by %.1f%%, want >= 15%%", w.Name(), mira.TimeReductionPct)
		}
		if mira.MessageRatio < 2 {
			t.Errorf("%s: batching cuts messages by %.2fx, want >= 2x", w.Name(), mira.MessageRatio)
		}
	}
	doc := map[string]any{
		"description":  "Vectored remote I/O A/B: mira-run -batch=true vs -batch=false at 25% local memory. Regenerate with: go test -run TestBenchBatching .",
		"mem_fraction": 0.25,
		"apps":         out,
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_batching.json", append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// ---- Multithreaded scaling trajectory (BENCH_mt.json) ----

// mtRunRecord is one (mode, thread count) point of the Fig. 24 driver.
type mtRunRecord struct {
	SimTimeNs     int64   `json:"sim_time_ns"`
	SimTime       string  `json:"sim_time"`
	Messages      int64   `json:"messages"`
	BytesMoved    int64   `json:"bytes_moved"`
	SpeedupOver1T float64 `json:"speedup_over_1t"`
}

// TestBenchMT runs the Fig. 24 read-only scaling driver (fixed GPT-2 batch
// divided across interleaved threads) for Mira, Mira-unopt, and FastSwap at
// 1..8 threads, emits BENCH_mt.json for future PRs to diff, and gates the
// paper's shape: Mira must out-scale FastSwap, and Mira-unopt's shared
// conservative sections must cost it measurable time against Mira's private
// sections at 4+ threads (emergent cross-thread eviction interference).
func TestBenchMT(t *testing.T) {
	w := NewGPT2Workload(GPT2Config{Layers: 6, DModel: 64, DFF: 256, SeqLen: 16, Seed: 117})
	budget := w.FullMemoryBytes()
	threadCounts := []int{1, 2, 4, 8}

	out := map[string]map[string]mtRunRecord{}
	timeAt := map[string]map[int]int64{}
	for _, mode := range []MTMode{MTMiraPrivate, MTMiraShared, MTFastSwapShared} {
		perN := map[string]mtRunRecord{}
		timeAt[string(mode)] = map[int]int64{}
		var t1 int64
		for _, n := range threadCounts {
			res, err := ReadOnlyScaling(mode, w, budget, n)
			if err != nil {
				t.Fatalf("%s x%d: %v", mode, n, err)
			}
			if err := res.Verify(); err != nil {
				t.Errorf("%s x%d: %v", mode, n, err)
			}
			res.Close()
			if n == 1 {
				t1 = int64(res.Time)
			}
			rec := mtRunRecord{
				SimTimeNs:  int64(res.Time),
				SimTime:    res.Time.String(),
				Messages:   res.Messages,
				BytesMoved: res.BytesMoved,
			}
			if res.Time > 0 {
				rec.SpeedupOver1T = float64(t1) / float64(res.Time)
			}
			perN[fmt.Sprintf("%d", n)] = rec
			timeAt[string(mode)][n] = int64(res.Time)
			t.Logf("%s x%d: %s (%.2fx over 1T), %d messages, %d bytes",
				mode, n, rec.SimTime, rec.SpeedupOver1T, rec.Messages, rec.BytesMoved)
		}
		out[string(mode)] = perN
	}

	miraS := out[string(MTMiraPrivate)]["4"].SpeedupOver1T
	fsS := out[string(MTFastSwapShared)]["4"].SpeedupOver1T
	if miraS <= fsS {
		t.Errorf("mira 4-thread speedup %.2fx not above fastswap %.2fx", miraS, fsS)
	}
	if p, u := timeAt[string(MTMiraPrivate)][4], timeAt[string(MTMiraShared)][4]; u <= p {
		t.Errorf("mira-unopt at 4 threads (%d ns) not slower than mira (%d ns)", u, p)
	}

	doc := map[string]any{
		"description": "Fig. 24 read-only scaling on the deterministic interleaved scheduler: fixed GPT-2 batch divided across threads, full-footprint budget. Regenerate with: go test -run TestBenchMT .",
		"threads":     threadCounts,
		"modes":       out,
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_mt.json", append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// ---- Multi-tenant serving trajectory (BENCH_tenants.json) ----

// tenantRunRecord is one tenant's outcome in one serving scenario.
type tenantRunRecord struct {
	Requests int            `json:"requests"`
	Admitted int            `json:"admitted"`
	Rejected map[string]int `json:"rejected"`
	P50Ns    int64          `json:"p50_ns"`
	P95Ns    int64          `json:"p95_ns"`
	P99Ns    int64          `json:"p99_ns"`
	P50      string         `json:"p50"`
	P95      string         `json:"p95"`
	P99      string         `json:"p99"`
}

// serveScenario runs the default mix under one (admission, faults) setting.
func serveScenario(t *testing.T, seed uint64, admission bool, faultsName string) (*ServeResult, []TenantSpec) {
	t.Helper()
	mix := DefaultTenantMix()
	res, err := Serve(mix, ServeOptions{
		Seed:      seed,
		Admission: admission,
		Elastic:   true,
		Faults:    faultsName,
	})
	if err != nil {
		t.Fatalf("serve (admission=%v faults=%q): %v", admission, faultsName, err)
	}
	return res, mix
}

// TestBenchTenants measures the multi-tenant serving layer: the canonical
// three-tenant mix (Poisson and bursty arrivals) under {admission on, off}
// x {healthy, chaos}, emitting per-tenant exact p50/p95/p99 latencies and
// rejected-request counts as BENCH_tenants.json for future PRs to diff.
// Gates: under chaos, admission control must shed load (rejections > 0) and
// cut some tenant's admitted-p99 below the admit-everything run; and no
// scenario may lose data — every tenant's far memory must equal a
// fault-free native replay of exactly its admitted request count.
func TestBenchTenants(t *testing.T) {
	const seed = 5
	out := map[string]map[string]tenantRunRecord{}
	scenarios := []struct {
		key       string
		admission bool
		faults    string
	}{
		{"healthy_admission", true, ""},
		{"healthy_noadmission", false, ""},
		{"chaos_admission", true, "chaos"},
		{"chaos_noadmission", false, "chaos"},
	}
	p99 := map[string]map[string]int64{} // scenario -> tenant -> p99
	for _, sc := range scenarios {
		res, mix := serveScenario(t, seed, sc.admission, sc.faults)
		perTenant := map[string]tenantRunRecord{}
		p99[sc.key] = map[string]int64{}
		for i, tr := range res.Tenants {
			perTenant[tr.Name] = tenantRunRecord{
				Requests: tr.Requests,
				Admitted: tr.Admitted,
				Rejected: tr.Rejected,
				P50Ns:    int64(tr.P50),
				P95Ns:    int64(tr.P95),
				P99Ns:    int64(tr.P99),
				P50:      tr.P50.String(),
				P95:      tr.P95.String(),
				P99:      tr.P99.String(),
			}
			p99[sc.key][tr.Name] = int64(tr.P99)
			t.Logf("%s %s: admitted %d/%d rejected %d p50=%v p95=%v p99=%v",
				sc.key, tr.Name, tr.Admitted, tr.Requests, tr.RejectedTotal(), tr.P50, tr.P95, tr.P99)

			// No data loss in any scenario: far memory must equal a native
			// replay of the admitted count.
			want, err := NativeTenantReplay(mix[i], tr.Admitted)
			if err != nil {
				t.Fatal(err)
			}
			for name, d := range tr.Dumps {
				if !bytesEqual(d, want[name]) {
					t.Errorf("%s %s: object %q diverges from native replay of %d requests",
						sc.key, tr.Name, name, tr.Admitted)
				}
			}
		}
		out[sc.key] = perTenant
	}

	rejected := 0
	tailCut := false
	for name, rec := range out["chaos_admission"] {
		for _, n := range rec.Rejected {
			rejected += n
		}
		if rec.Admitted > 0 && p99["chaos_admission"][name] < p99["chaos_noadmission"][name] {
			tailCut = true
		}
	}
	if rejected == 0 {
		t.Error("admission control rejected nothing under chaos")
	}
	if !tailCut {
		t.Error("admission control did not cut any tenant's p99 under chaos")
	}

	doc := map[string]any{
		"description": "Multi-tenant serving: default 3-tenant mix (Poisson + bursty arrivals) under {admission on, off} x {healthy, chaos}, exact per-tenant percentiles over admitted requests. Regenerate with: go test -run TestBenchTenants .",
		"seed":        seed,
		"scenarios":   out,
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_tenants.json", append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// ---- Prefetcher zoo race (BENCH_prefetch.json) ----

// prefetchCellRecord is one (app, plane, policy) cell of the race.
type prefetchCellRecord struct {
	SimTimeNs    int64   `json:"sim_time_ns"`
	SimTime      string  `json:"sim_time"`
	Messages     int64   `json:"messages"`
	BytesMoved   int64   `json:"bytes_moved"`
	Issued       int64   `json:"issued"`
	Useful       int64   `json:"useful"`
	Useless      int64   `json:"useless"`
	Dropped      int64   `json:"dropped"`
	DemandMisses int64   `json:"demand_misses"`
	Accuracy     float64 `json:"accuracy"`
	Coverage     float64 `json:"coverage"`
	Timeliness   float64 `json:"timeliness"`
}

func prefetchCell(res RunResult) prefetchCellRecord {
	return prefetchCellRecord{
		SimTimeNs:    int64(res.Time),
		SimTime:      res.Time.String(),
		Messages:     res.Messages,
		BytesMoved:   res.BytesMoved,
		Issued:       res.Prefetch.Issued,
		Useful:       res.Prefetch.Useful,
		Useless:      res.Prefetch.Useless,
		Dropped:      res.Prefetch.Dropped,
		DemandMisses: res.DemandMisses,
		Accuracy:     res.Prefetch.Accuracy(),
		Coverage:     res.Prefetch.Coverage(res.DemandMisses),
		Timeliness:   res.Prefetch.Timeliness(),
	}
}

// TestBenchPrefetch races every registered prefetch policy against every
// app on both data planes — the page plane (uniform swap, policy as page
// prefetcher) and the line plane (the planner's accepted sections, policy
// on each section's miss stream, with the compiled prefetch stream as the
// reference arm) — and emits BENCH_prefetch.json for future PRs to diff.
// Gates, per the policy taxonomy (DESIGN.md §13): the programmed runner
// must beat no-prefetch on the sequential scan's page plane and the
// compiled stream on at least one scan app's line plane; the online
// history prefetcher must beat both no-prefetch and readahead on the
// pointer-heavy graph traversal's page plane. CI runs this twice and
// byte-compares the JSON (prefetch-smoke).
func TestBenchPrefetch(t *testing.T) {
	apps := []Workload{
		NewSeqScanWorkload(SeqScanConfig{}),
		NewStrideScanWorkload(StrideScanConfig{}),
		NewGraphWorkload(GraphConfig{Edges: 8192, Nodes: 1024, Passes: 3, Seed: 7}),
		NewDataFrameWorkload(DataFrameConfig{}),
		NewGPT2Workload(GPT2Config{Layers: 2, DModel: 32, DFF: 128, SeqLen: 8, Seed: 11}),
	}
	var pagePolicies []PrefetchSpec
	for _, name := range PrefetchPolicyNames() {
		pagePolicies = append(pagePolicies, PrefetchSpec{Policy: name})
	}
	linePolicies := append([]PrefetchSpec{{Policy: PrefetchCompiled}}, pagePolicies...)

	out := map[string]map[string]map[string]prefetchCellRecord{}
	for _, w := range apps {
		opts := RunOptions{
			Budget: int64(float64(w.FullMemoryBytes()) * 0.25),
			Verify: true,
		}
		page := map[string]prefetchCellRecord{}
		for _, spec := range pagePolicies {
			res, err := RunPagePrefetch(w, opts, spec)
			if err != nil {
				t.Fatalf("%s page/%s: %v", w.Name(), spec.Policy, err)
			}
			page[spec.Policy] = prefetchCell(res)
			t.Logf("%s page/%s: %s, %d misses, acc %.2f cov %.2f",
				w.Name(), spec.Policy, res.Time, res.DemandMisses,
				res.Prefetch.Accuracy(), res.Prefetch.Coverage(res.DemandMisses))
		}
		lres, err := RunLinePrefetchRace(w, opts, linePolicies)
		if err != nil {
			t.Fatalf("%s line race: %v", w.Name(), err)
		}
		line := map[string]prefetchCellRecord{}
		for i, spec := range linePolicies {
			line[spec.Policy] = prefetchCell(lres[i])
			t.Logf("%s line/%s: %s, %d misses, acc %.2f cov %.2f",
				w.Name(), spec.Policy, lres[i].Time, lres[i].DemandMisses,
				lres[i].Prefetch.Accuracy(), lres[i].Prefetch.Coverage(lres[i].DemandMisses))
		}
		out[w.Name()] = map[string]map[string]prefetchCellRecord{
			"page": page, "line": line,
		}
	}

	// Gate: the programmed runner's exact future knowledge must beat the
	// pattern-blind arms on the sequential scan's page plane.
	if p, n := out["seqscan"]["page"]["programmed"], out["seqscan"]["page"]["none"]; p.SimTimeNs >= n.SimTimeNs {
		t.Errorf("seqscan page: programmed (%s) not under no-prefetch (%s)", p.SimTime, n.SimTime)
	}
	// Gate: shedding the compiled stream's per-iteration guard arithmetic
	// must pay on at least one scan app's line plane.
	progWins := false
	for _, app := range []string{"seqscan", "stridescan"} {
		if out[app]["line"]["programmed"].SimTimeNs < out[app]["line"][PrefetchCompiled].SimTimeNs {
			progWins = true
		}
	}
	if !progWins {
		t.Errorf("line plane: programmed (%s seqscan, %s stridescan) never under compiled (%s, %s)",
			out["seqscan"]["line"]["programmed"].SimTime,
			out["stridescan"]["line"]["programmed"].SimTime,
			out["seqscan"]["line"][PrefetchCompiled].SimTime,
			out["stridescan"]["line"][PrefetchCompiled].SimTime)
	}
	// Gate: the history prefetcher's learned miss deltas must beat the
	// pattern-blind arms on the repeated graph traversal's page plane.
	g := out["graphtraverse"]["page"]
	if g["history"].SimTimeNs >= g["none"].SimTimeNs {
		t.Errorf("graphtraverse page: history (%s) not under no-prefetch (%s)",
			g["history"].SimTime, g["none"].SimTime)
	}
	if g["history"].SimTimeNs >= g["readahead"].SimTimeNs {
		t.Errorf("graphtraverse page: history (%s) not under readahead (%s)",
			g["history"].SimTime, g["readahead"].SimTime)
	}

	doc := map[string]any{
		"description":  "Prefetcher zoo race: every registered policy x every app on both data planes (page = uniform swap, line = planner's accepted sections; 'compiled' = the planner's emitted prefetch stream) at 25% local memory. Regenerate with: go test -run TestBenchPrefetch .",
		"mem_fraction": 0.25,
		"policies":     append([]string{PrefetchCompiled}, PrefetchPolicyNames()...),
		"apps":         out,
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_prefetch.json", append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// ---- Compressed + tiered far memory race (BENCH_compress.json) ----

// compressRunRecord is one (app, compress mode) measurement.
type compressRunRecord struct {
	SimTimeNs      int64   `json:"sim_time_ns"`
	SimTime        string  `json:"sim_time"`
	BytesOnWire    int64   `json:"bytes_on_wire"`
	BytesEffective int64   `json:"bytes_effective"`
	WireSavedPct   float64 `json:"wire_saved_pct"`
}

func compressMeasure(t *testing.T, w Workload, mode string) compressRunRecord {
	t.Helper()
	res, err := Run(SystemMira, w, RunOptions{
		Budget:  int64(float64(w.FullMemoryBytes()) * 0.25),
		Verify:  true,
		Planner: PlanOptions{Compress: mode},
	})
	if err != nil {
		t.Fatalf("%s compress=%s: %v", w.Name(), mode, err)
	}
	rec := compressRunRecord{
		SimTimeNs:      int64(res.Time),
		SimTime:        res.Time.String(),
		BytesOnWire:    res.BytesOnWire,
		BytesEffective: res.BytesEffective,
	}
	if res.BytesEffective > 0 {
		rec.WireSavedPct = 100 * float64(res.BytesEffective-res.BytesOnWire) / float64(res.BytesEffective)
	}
	return rec
}

// TestBenchCompress races the wire-compression modes {off, always-on,
// planner-chosen} across three apps (all verified against the native
// oracle, so far-memory images stay byte-identical in every mode), plus one
// tiered-cluster run combining compression with the SSD capacity tier, and
// emits BENCH_compress.json for future PRs to diff. Gates: planner-chosen
// must match or beat both pure modes on every app (it measures, then keeps
// the winner); always-on must cut bytes-on-wire >= 30% on at least one
// bandwidth-bound scan; the tier run must actually demote and promote.
// CI runs this twice and byte-compares the JSON (compress-smoke).
func TestBenchCompress(t *testing.T) {
	apps := []Workload{
		NewSeqScanWorkload(SeqScanConfig{}),
		NewStrideScanWorkload(StrideScanConfig{}),
		NewDataFrameWorkload(DataFrameConfig{}),
	}
	modes := []string{"off", "on", "auto"}

	out := map[string]map[string]compressRunRecord{}
	for _, w := range apps {
		perMode := map[string]compressRunRecord{}
		for _, mode := range modes {
			rec := compressMeasure(t, w, mode)
			perMode[mode] = rec
			t.Logf("%s compress=%s: %s, %d B on wire (%d effective, %.1f%% saved)",
				w.Name(), mode, rec.SimTime, rec.BytesOnWire, rec.BytesEffective, rec.WireSavedPct)
		}
		out[w.Name()] = perMode

		// Gate: the planner's measured per-section choice dominates both
		// blanket settings — it races them and keeps the faster config.
		a, off, on := perMode["auto"], perMode["off"], perMode["on"]
		if a.SimTimeNs > off.SimTimeNs || a.SimTimeNs > on.SimTimeNs {
			t.Errorf("%s: planner-chosen (%s) loses to off (%s) or on (%s)",
				w.Name(), a.SimTime, off.SimTime, on.SimTime)
		}
	}

	// Gate: >= 30% of the wire bytes must come off at least one
	// bandwidth-bound scan under always-on compression.
	wireCut := false
	for _, app := range []string{"seqscan", "stridescan"} {
		off, on := out[app]["off"], out[app]["on"]
		if off.BytesOnWire > 0 &&
			float64(off.BytesOnWire-on.BytesOnWire) >= 0.30*float64(off.BytesOnWire) {
			wireCut = true
		}
	}
	if !wireCut {
		t.Errorf("no scan app saw a >= 30%% bytes-on-wire cut: seqscan %d -> %d, stridescan %d -> %d",
			out["seqscan"]["off"].BytesOnWire, out["seqscan"]["on"].BytesOnWire,
			out["stridescan"]["off"].BytesOnWire, out["stridescan"]["on"].BytesOnWire)
	}

	// Tiered arm: compression on over a 2-node pool whose per-node DRAM
	// holds an eighth of the footprint — cold granules must spill to flash
	// and come back (the repeated traversal revisits them), with the run
	// still verifying byte-identical.
	tw := NewGraphWorkload(GraphConfig{Edges: 8192, Nodes: 1024, Passes: 3, Seed: 7})
	tres, err := Run(SystemMira, tw, RunOptions{
		Budget:  int64(float64(tw.FullMemoryBytes()) * 0.25),
		Verify:  true,
		Planner: PlanOptions{Compress: "on"},
		Nodes:   2,
		Tier:    &TierConfig{DRAMBytes: uint64(tw.FullMemoryBytes() / 8)},
	})
	if err != nil {
		t.Fatalf("tiered run: %v", err)
	}
	var tierSum TierStats
	for _, n := range tres.Cluster {
		tierSum.Hits += n.Tier.Hits
		tierSum.Misses += n.Tier.Misses
		tierSum.Demotions += n.Tier.Demotions
		tierSum.ResidentBytes += n.Tier.ResidentBytes
		tierSum.SSDBytes += n.Tier.SSDBytes
	}
	if tierSum.Demotions == 0 || tierSum.Misses == 0 {
		t.Errorf("capacity tier never exercised: %+v", tierSum)
	}
	capacityRatio := 0.0
	if tierSum.ResidentBytes > 0 {
		capacityRatio = float64(tierSum.ResidentBytes+tierSum.SSDBytes) / float64(tierSum.ResidentBytes)
	}
	t.Logf("tiered graphtraverse: %v, tier %d hits %d misses %d demotions, %.2fx effective capacity",
		tres.Time, tierSum.Hits, tierSum.Misses, tierSum.Demotions, capacityRatio)

	doc := map[string]any{
		"description":  "Wire-compression A/B: mira-run -compress {off,on,auto} at 25% local memory (planner-chosen = per-section measured accept/rollback), plus one 2-node run with the SSD capacity tier. Regenerate with: go test -run TestBenchCompress .",
		"mem_fraction": 0.25,
		"modes":        modes,
		"apps":         out,
		"tiered_graphtraverse": map[string]any{
			"sim_time_ns":        int64(tres.Time),
			"sim_time":           tres.Time.String(),
			"bytes_on_wire":      tres.BytesOnWire,
			"bytes_effective":    tres.BytesEffective,
			"tier_hits":          tierSum.Hits,
			"tier_misses":        tierSum.Misses,
			"tier_demotions":     tierSum.Demotions,
			"tier_dram_bytes":    tierSum.ResidentBytes,
			"tier_flash_bytes":   tierSum.SSDBytes,
			"eff_capacity_ratio": capacityRatio,
		},
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_compress.json", append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// ---- Hybrid data-plane race (BENCH_hybrid.json) ----

// hybridRunRecord is one (app, plane mode) measurement.
type hybridRunRecord struct {
	SimTimeNs  int64             `json:"sim_time_ns"`
	SimTime    string            `json:"sim_time"`
	Messages   int64             `json:"messages"`
	BytesMoved int64             `json:"bytes_moved"`
	Planes     map[string]string `json:"planes"` // object -> local | line | page
}

func hybridMeasure(t *testing.T, w Workload, mode string) hybridRunRecord {
	t.Helper()
	res, err := Run(SystemMira, w, RunOptions{
		Budget:  int64(float64(w.FullMemoryBytes()) * 0.25),
		Verify:  true,
		Planner: PlanOptions{Plane: mode},
	})
	if err != nil {
		t.Fatalf("%s plane=%s: %v", w.Name(), mode, err)
	}
	rec := hybridRunRecord{
		SimTimeNs:  int64(res.Time),
		SimTime:    res.Time.String(),
		Messages:   res.Messages,
		BytesMoved: res.BytesMoved,
	}
	if res.PlanResult != nil {
		rec.Planes = res.PlanResult.Planes
	}
	return rec
}

// TestBenchHybrid races the three plane modes {page, line, hybrid} across
// every app at 25% local memory (all verified against the native oracle) and
// emits BENCH_hybrid.json for future PRs to diff. Gate: hybrid must match or
// beat both pure planes on every app — its baseline IS the page arm's run and
// its line candidate is built by the same helper as the line arm's, so the
// planner keeps whichever wins and a loss here means the race leaked state
// between arms. CI runs this twice and byte-compares the JSON (hybrid-smoke).
func TestBenchHybrid(t *testing.T) {
	apps := []Workload{
		NewSeqScanWorkload(SeqScanConfig{}),
		NewStrideScanWorkload(StrideScanConfig{}),
		NewGraphWorkload(GraphConfig{Edges: 8192, Nodes: 1024, Passes: 3, Seed: 7}),
		NewDataFrameWorkload(DataFrameConfig{}),
		NewGPT2Workload(GPT2Config{Layers: 2, DModel: 32, DFF: 128, SeqLen: 8, Seed: 11}),
	}
	modes := []string{"page", "line", "hybrid"}

	out := map[string]map[string]hybridRunRecord{}
	for _, w := range apps {
		perMode := map[string]hybridRunRecord{}
		for _, mode := range modes {
			rec := hybridMeasure(t, w, mode)
			perMode[mode] = rec
			t.Logf("%s plane=%s: %s, %d messages, %d bytes, planes %v",
				w.Name(), mode, rec.SimTime, rec.Messages, rec.BytesMoved, rec.Planes)
		}
		out[w.Name()] = perMode

		h, p, l := perMode["hybrid"], perMode["page"], perMode["line"]
		if h.SimTimeNs > p.SimTimeNs || h.SimTimeNs > l.SimTimeNs {
			t.Errorf("%s: hybrid (%s) loses to page (%s) or line (%s)",
				w.Name(), h.SimTime, p.SimTime, l.SimTime)
		}
	}

	doc := map[string]any{
		"description":  "Hybrid data-plane race: mira-run -plane {page,line,hybrid} at 25% local memory. page = everything on the kernel-paging plane, line = everything cacheable on runtime line sections, hybrid = planner races both and keeps a per-object split. Regenerate with: go test -run TestBenchHybrid .",
		"mem_fraction": 0.25,
		"modes":        modes,
		"apps":         out,
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_hybrid.json", append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// bytesEqual avoids importing bytes just for the dump comparison.
// ---- Scatter-gather offload race (BENCH_offload.json) ----

// offloadRunRecord is one (app, node count, offload mode) measurement.
type offloadRunRecord struct {
	SimTimeNs  int64    `json:"sim_time_ns"`
	SimTime    string   `json:"sim_time"`
	BytesMoved int64    `json:"bytes_moved"`
	Offloaded  []string `json:"offloaded,omitempty"`
}

func offloadMeasure(t *testing.T, kernel string, nodes int, mode string) offloadRunRecord {
	t.Helper()
	w := NewDistAggWorkload(DistAggConfig{N: 1 << 14, Mode: kernel})
	res, err := Run(SystemMira, w, RunOptions{
		Budget:      w.FullMemoryBytes() / 4,
		Verify:      true,
		Nodes:       nodes,
		StripeBytes: 16 << 10,
		Planner:     PlanOptions{Offload: mode},
	})
	if err != nil {
		t.Fatalf("%s nodes=%d offload=%s: %v", kernel, nodes, mode, err)
	}
	rec := offloadRunRecord{
		SimTimeNs:  int64(res.Time),
		SimTime:    res.Time.String(),
		BytesMoved: res.BytesMoved,
	}
	if res.PlanResult != nil {
		rec.Offloaded = res.PlanResult.Offloaded
	}
	return rec
}

// TestBenchOffload races the scatter-gather offload modes {off, on,
// planner-chosen} for the distributed aggregation and filter kernels
// across 1-8 node pools (every run verified against the native oracle) and
// emits BENCH_offload.json for future PRs to diff. Gates: auto must match
// or beat both pure modes in every cell (the planner races offload against
// fetch and keeps the winner), and at 8 nodes the aggregation must run
// faster shipping compute to the data than fetching the data to compute.
// CI runs this twice and byte-compares the JSON (offload-smoke).
func TestBenchOffload(t *testing.T) {
	kernels := []string{"agg", "filter"}
	nodeCounts := []int{1, 2, 4, 8}
	modes := []string{"off", "on", "auto"}

	out := map[string]map[string]offloadRunRecord{}
	for _, kernel := range kernels {
		perCell := map[string]offloadRunRecord{}
		for _, nodes := range nodeCounts {
			for _, mode := range modes {
				rec := offloadMeasure(t, kernel, nodes, mode)
				perCell[fmt.Sprintf("nodes-%d/%s", nodes, mode)] = rec
				t.Logf("%s nodes=%d offload=%s: %s, %d B moved, offloaded %v",
					kernel, nodes, mode, rec.SimTime, rec.BytesMoved, rec.Offloaded)
			}
			a := perCell[fmt.Sprintf("nodes-%d/auto", nodes)]
			off := perCell[fmt.Sprintf("nodes-%d/off", nodes)]
			on := perCell[fmt.Sprintf("nodes-%d/on", nodes)]
			// Gate: auto races offload against fetch from the settled plan
			// and accepts only strict wins, so it can't lose to either.
			if a.SimTimeNs > off.SimTimeNs || a.SimTimeNs > on.SimTimeNs {
				t.Errorf("%s nodes=%d: planner-chosen (%s) loses to off (%s) or on (%s)",
					kernel, nodes, a.SimTime, off.SimTime, on.SimTime)
			}
		}
		out[kernel] = perCell
	}

	// Gate: at cluster scale, shipping the aggregation to the data beats
	// fetching the data to the aggregation.
	off8, on8 := out["agg"]["nodes-8/off"], out["agg"]["nodes-8/on"]
	if on8.SimTimeNs >= off8.SimTimeNs {
		t.Errorf("agg at 8 nodes: offload (%s) does not beat fetch (%s)", on8.SimTime, off8.SimTime)
	}

	doc := map[string]any{
		"description":  "Scatter-gather offload A/B: mira-run -app {distagg,distfilter} -offload {off,on,auto} across 1-8 node pools at 25% local memory, 16 KiB stripes (auto = planner-raced accept/rollback per function). Regenerate with: go test -run TestBenchOffload .",
		"mem_fraction": 0.25,
		"stripe_bytes": 16 << 10,
		"elements":     1 << 14,
		"nodes":        nodeCounts,
		"modes":        modes,
		"apps":         out,
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_offload.json", append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
