// Command benchmark is the repository's one benchmark: it runs one workload
// (a fixed list of program × system cells) at one seed, verifies every
// output against the native oracle, and prints every declared metric by
// name with its unit and clock. See README.md in this directory.
//
//	go run ./benchmark -workload compute_hit -seed 1 -seconds 20 -trace 0
//	go run ./benchmark -workload compute_hit -seed 1 -seconds 20 -trace 1
//	go run ./benchmark -compare before.json after.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// -trace 0, the per-layer metrics with -trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// value is one reported metric. Host-clock metrics carry the median,
// quartiles and repetition count next to the reported value; simulated ones
// repeat exactly and have none.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Min   float64 `json:"min,omitempty"`
	P25   float64 `json:"p25,omitempty"`
	Med   float64 `json:"median,omitempty"`
	P75   float64 `json:"p75,omitempty"`
	N     int     `json:"n,omitempty"`
}

// report is one invocation's result; -out appends it to a file -compare
// reads.
type report struct {
	Workload  string           `json:"workload"`
	Seed      uint64           `json:"seed"`
	Traced    bool             `json:"traced"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", fmt.Sprintf("workload to run: one of %v", workloadOrder))
		seed     = flag.Uint64("seed", 1, "seed every generated input derives from")
		seconds  = flag.Float64("seconds", runSeconds, "how long the timed repetitions may take")
		traceOn  = flag.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
		smoke    = flag.Bool("smoke", false, "run at the small smoke sizes (tests and ci.sh)")
		outFile  = flag.String("out", "", "append this run's report to a JSON file for -compare")
		compare  = flag.Bool("compare", false, "compare two -out files: -compare before.json after.json")
		spread   = flag.String("spread", "", "print the run-to-run spread of the runs in an -out file and exit")
		list     = flag.Bool("list", false, "print the declared workloads and metrics and exit")
		contract = flag.Bool("contract", false, "print BENCHMARK.json as generated from the declarations and exit")
	)
	flag.Parse()
	// One OS thread runs Go code: the load is one driver goroutine (and
	// scheduler coroutines that hand off one at a time), and on a small
	// shared machine a second P only lets the collector and the driver
	// migrate between cores, which is most of the run-to-run noise.
	runtime.GOMAXPROCS(1)

	switch {
	case *list:
		printDeclared(os.Stdout)
		return
	case *contract:
		if err := writeContract(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	case *spread != "":
		if err := spreadFile(os.Stdout, *spread); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare needs two report files")
			os.Exit(2)
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	if *traceOn != 0 && *traceOn != 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -trace takes 0 or 1")
		os.Exit(2)
	}
	sz := fullSizes
	if *smoke {
		sz = smokeSizes
	}
	b, err := newBench(*workload, *seed, sz)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	budget := time.Duration(*seconds * float64(time.Second))
	var rep *report
	if *traceOn == 1 {
		rep, err = b.tracedPass(os.Stdout, budget, *smoke)
	} else {
		rep, err = b.endToEnd(os.Stdout, budget, *smoke)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if *outFile != "" {
		if err := appendReport(*outFile, rep); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
	}
	if err := printResultLine(os.Stdout, rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if !rep.Correct {
		os.Exit(1)
	}
}

// printResultLine writes the contract's last line.
func printResultLine(w io.Writer, rep *report) error {
	type unitValue struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]unitValue `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, map[string]unitValue{}}
	for name, v := range rep.Metrics {
		out.Metrics[name] = unitValue{v.Value, v.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// repetition is one timed pass over every cell of the workload.
type repetition struct {
	outs              []cellOut
	allocBytes        uint64
	attempted, failed int
}

// runAll executes every cell once. first, when set, is the reference
// repetition every simulated number must reproduce.
func (b *bench) runAll(first *repetition) repetition {
	var rep repetition
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i, c := range b.cells {
		out := b.runCell(c, nil, nil)
		if first != nil && out.failed == 0 && !sameSims(out.sims, first.outs[i].sims) {
			out.fail(c.id, "repeat", fmt.Errorf("simulated numbers differ between repetitions: %v vs %v", out.sims, first.outs[i].sims))
		}
		rep.attempted += out.attempted
		rep.failed += out.failed
		rep.outs = append(rep.outs, out)
	}
	runtime.ReadMemStats(&m1)
	rep.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	return rep
}

// minRepetitions is the floor on timed repetitions, whatever -seconds says:
// below it a median and quartiles mean little.
const minRepetitions = 3

// smokeRepetitions is how many timed repetitions a -smoke run makes: enough
// to exercise the repeat check.
const smokeRepetitions = 2

// samples collects one host duration per repetition for each part (a cell's
// plan, a cell's run, a program's set-up) of a timing metric. The reported
// value is the sum over parts of each part's fastest repetition. Noise on a
// small shared machine only ever adds time, and it comes in bursts that last
// from a second to minutes: ten runs of one commit that spread 35 % in the
// sum of per-part medians spread 6 % in the sum of per-part minima (see
// README.md, "Noise protocol"). The per-part medians and quartiles are
// summed and printed next to it.
type samples map[string][]float64

func (s samples) add(part string, d time.Duration) {
	s[part] = append(s[part], d.Seconds())
}

// value sums the parts' minima (the reported value), medians and quartiles.
func (s samples) value(unit string) value {
	v := value{Unit: unit}
	for _, vs := range s {
		p25, med, p75 := quartiles(vs)
		v.Min, v.P25, v.Med, v.P75, v.N = v.Min+fastest(vs), v.P25+p25, v.Med+med, v.P75+p75, len(vs)
	}
	v.Value = v.Min
	return v
}

// endToEnd is the untraced measurement: set-up, one discarded warm-up
// repetition, then timed repetitions for the given budget. Set-up is timed
// again before every repetition, so its samples spread over the whole run
// like the others'.
func (b *bench) endToEnd(w io.Writer, budget time.Duration, smoke bool) (*report, error) {
	setups, plans, runs := samples{}, samples{}, samples{}
	timedSetup := func() error {
		runtime.GC()
		if err := b.setup(); err != nil {
			return err
		}
		for name, p := range b.progs {
			setups.add(name, p.setupHost)
		}
		return nil
	}
	if err := timedSetup(); err != nil {
		return nil, err
	}

	warm := b.runAll(nil)
	first := &warm
	rep := &report{Workload: b.name, Seed: b.seed, Metrics: map[string]value{}}
	rep.Attempted, rep.Failed = warm.attempted, warm.failed
	var allocs []float64
	start := time.Now()
	for n := 1; ; n++ {
		h0 := time.Now()
		if err := timedSetup(); err != nil {
			return nil, err
		}
		r := b.runAll(first)
		for i, c := range b.cells {
			if c.kind == kindMira {
				plans.add(c.id, r.outs[i].planHost)
			}
			runs.add(c.id, r.outs[i].runHost)
		}
		allocs = append(allocs, float64(r.allocBytes)/(1<<20))
		rep.Attempted += r.attempted
		rep.Failed += r.failed
		last := time.Since(h0)
		if smoke && n >= smokeRepetitions || n >= minRepetitions && time.Since(start)+last > budget {
			break
		}
	}

	rep.Metrics["setup_s"] = setups.value("s")
	rep.Metrics["plan_wall_s"] = plans.value("s")
	rep.Metrics["run_wall_s"] = runs.value("s")
	p25, med, p75 := quartiles(allocs)
	rep.Metrics["host_alloc_mb"] = value{Value: med, Unit: "MiB", P25: p25, P75: p75, N: len(allocs)}
	slow, amp := b.simMetrics(first.outs)
	rep.Metrics["sim_slowdown"] = value{Value: slow, Unit: "ratio"}
	rep.Metrics["wire_amplification"] = value{Value: amp, Unit: "ratio"}
	rep.Correct = rep.Failed == 0

	// Show each cell's fastest host times next to its (exact) sim numbers.
	shown := append([]cellOut(nil), first.outs...)
	for i, c := range b.cells {
		shown[i].planHost = time.Duration(fastest(plans[c.id]) * float64(time.Second))
		shown[i].runHost = time.Duration(fastest(runs[c.id]) * float64(time.Second))
	}
	fmt.Fprintf(w, "workload %s  seed %d  sizes %s\n", b.name, b.seed, sizeLabel(smoke))
	fmt.Fprintf(w, "load: closed loop, one client, cells one after another; modelled caches start empty in every cell; local memory 25%% of the footprint unless the cell id says otherwise\n")
	b.printCells(w, shown)
	printMetrics(w, rep, endToEndMetrics)
	fmt.Fprintf(w, "operations: %d attempted, %d failed (one plan or one verified run each; admitted requests in the serve cell)\n", rep.Attempted, rep.Failed)
	return rep, nil
}

func sizeLabel(smoke bool) string {
	if smoke {
		return "smoke"
	}
	return "full"
}

// simMetrics computes the two simulated end-to-end metrics from one
// repetition: geometric means over the workload's Mira cells.
func (b *bench) simMetrics(outs []cellOut) (slowdown, amplification float64) {
	var slows, amps []float64
	for i, c := range b.cells {
		o := outs[i]
		if o.simNs == 0 {
			continue
		}
		switch {
		case c.kind == kindMira:
			p := b.progs[c.app]
			slows = append(slows, float64(o.simNs)/float64(p.nativeSim))
			amps = append(amps, float64(o.wire)/float64(p.full))
		case c.kind == kindMT && c.mtMode == mtMiraMode:
			p := b.progs[c.app]
			slows = append(slows, float64(o.simNs)/(float64(p.nativeSim)*mtBatch))
			amps = append(amps, float64(o.wire)/float64(p.full))
		}
	}
	return geomean(slows), geomean(amps)
}

// printCells lists every cell's outcome on both clocks.
func (b *bench) printCells(w io.Writer, outs []cellOut) {
	fmt.Fprintf(w, "%-30s %12s %12s %14s %12s %10s\n", "cell", "plan host ms", "run host ms", "sim us", "wire KiB", "messages")
	for i, c := range b.cells {
		o := outs[i]
		note := ""
		if o.outcome != "" {
			note = "  (modelled outcome: " + o.outcome + ")"
		}
		if o.failed > 0 {
			note += "  FAILED"
		}
		fmt.Fprintf(w, "%-30s %12.1f %12.1f %14.3f %12.1f %10d%s\n", c.id,
			o.planHost.Seconds()*1e3, o.runHost.Seconds()*1e3,
			float64(o.simNs)/1e3, float64(o.wire)/1024, o.messages, note)
	}
	var names []string
	for name := range b.progs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		p := b.progs[name]
		fmt.Fprintf(w, "%-30s %12s %12.1f %14.3f   (oracle; footprint %d KiB)\n", name+"/native", "-",
			p.setupHost.Seconds()*1e3, float64(p.nativeSim)/1e3, p.full/1024)
	}
}

// printMetrics prints the declared metrics of one table, in declaration
// order, each exactly once.
func printMetrics(w io.Writer, rep *report, decls []metricDecl) {
	for _, d := range decls {
		v, ok := rep.Metrics[d.Name]
		if !ok {
			continue
		}
		switch {
		case v.Min > 0:
			fmt.Fprintf(w, "metric %-34s %14.6g %-6s clock=%-4s fastest of %d repetitions per part (median %.6g, p25 %.6g, p75 %.6g)\n",
				d.Name, v.Value, v.Unit, d.Clock, v.N, v.Med, v.P25, v.P75)
		case v.N > 0:
			fmt.Fprintf(w, "metric %-34s %14.6g %-6s clock=%-4s median of %d repetitions (p25 %.6g, p75 %.6g)\n",
				d.Name, v.Value, v.Unit, d.Clock, v.N, v.P25, v.P75)
		default:
			fmt.Fprintf(w, "metric %-34s %14.6g %-6s clock=%s\n", d.Name, v.Value, v.Unit, d.Clock)
		}
	}
}

// cpuSeconds is the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// appendReport adds rep to the report list in path, creating it if needed.
func appendReport(path string, rep *report) error {
	var all []report
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &all); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	all = append(all, *rep)
	data, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
