package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"mira/internal/exec"
	"mira/internal/faults"
	"mira/internal/harness"
	"mira/internal/prefetch"
	"mira/internal/rt"
	"mira/internal/sim"
	"mira/internal/trace"
	"mira/internal/transport"
)

// cellTracer is what the traced pass attaches to one cell: the program's
// own tracer (T) and, on Mira cells, the two boundary decorators (D).
type cellTracer struct {
	tracer *trace.Tracer
	exec   *execTap
	far    *farFolds
	cost   [2]tapCost // exec, far
}

// attach decorates a bound runtime and returns the backend the interpreter
// should run against.
func (t *cellTracer) attach(r *rt.Runtime) exec.Backend {
	be, tap := tapExec(r)
	t.exec = tap
	t.far = tapFar(r, &tap.cur)
	r.SetTrace(t.tracer)
	return be
}

// phaseTimes are the host instants bounding a driven run's phases.
type phaseTimes struct {
	setupStart, runStart, runEnd, flushEnd, verifyEnd time.Time
}

// tracedRun is everything the traced pass keeps of one cell.
type tracedRun struct {
	phases          phaseTimes
	runSim, flushAt sim.Time

	execOps      [numExecOps]fold
	far          farFolds // far-node calls by causing exec op kind; last row: FlushAll
	batchEntries int64

	// Self times of the run phase, decorator cost removed (host ns).
	execSelf, rtSelf, farSelf, decorator float64
	// linkBusyNs is the time the cell's traffic occupied one far-node link:
	// the wire time of its bytes plus one doorbell per message, spread over
	// the pool's links.
	linkBusyNs float64
	// stats are the cell's own headline counters: the per-layer metrics sum
	// over cells, and the separation between cells (arraysum writes nothing
	// back, seqscan does) only shows here and in the trace file.
	stats map[string]float64

	// S: public stat getters.
	wbq     rt.WbqStats
	pf      prefetch.Efficacy
	misses  int64
	faults  faults.Stats
	cluster clusterSummary

	// T: folded tracer output.
	events   int
	missNs   []int64 // rt "miss" span durations
	faultNs  []int64 // swap "fault.major" span durations
	netOps   int64
	netSimNs int64
	counters map[string]int64
	resyncNs int64
	offSubs  int64
	offExec  int64
	offComm  int64
	offBytes int64
}

type clusterSummary struct {
	failovers int64
	imbalance float64
}

// foldTracer reduces the cell's tracer to the numbers the per-layer
// metrics need.
func (t *cellTracer) foldTracer(tr *tracedRun) {
	evs := t.tracer.Events()
	tr.events = len(evs)
	for _, e := range evs {
		span := e.Ph == trace.PhaseSpan
		switch {
		case e.Cat == "rt" && e.Name == "miss":
			tr.missNs = append(tr.missNs, int64(e.Dur))
		case e.Cat == "swap" && e.Name == "fault.major":
			tr.faultNs = append(tr.faultNs, int64(e.Dur))
		case e.Cat == "net" && span:
			tr.netOps++
			tr.netSimNs += int64(e.Dur)
		case e.Cat == "cluster" && e.Name == "resync":
			tr.resyncNs += int64(e.Dur)
		case e.Name == "offload.exec":
			tr.offSubs++
			tr.offExec += int64(e.Dur)
		case e.Name == "offload.commit":
			tr.offComm += int64(e.Dur)
		}
	}
	// Counters come out of the registry's JSON form, its only enumerable
	// one. Sum each family over its labels, skipping the per-thread
	// breakdown (",tid=") that repeats the per-section totals.
	var buf bytes.Buffer
	var reg struct {
		Counters map[string]int64 `json:"counters"`
	}
	tr.counters = map[string]int64{}
	if err := t.tracer.Registry().WriteJSON(&buf); err != nil {
		return
	}
	if err := json.Unmarshal(buf.Bytes(), &reg); err != nil {
		return
	}
	for name, v := range reg.Counters {
		if strings.Contains(name, ",tid=") {
			continue
		}
		family := name
		if i := strings.IndexByte(name, '{'); i >= 0 {
			family = name[:i]
		}
		tr.counters[family] += v
	}
	tr.offBytes = tr.counters["offload.bytes"]
}

// finishMira collects a driven Mira cell's decorators, stats and tracer.
func (t *cellTracer) finishMira(r *rt.Runtime, out *cellOut, ph phaseTimes, runSim, flushAt sim.Time) {
	tr := &tracedRun{phases: ph, runSim: runSim, flushAt: flushAt}
	tr.execOps, tr.far, tr.batchEntries = t.exec.ops, *t.far, t.exec.batchEntries
	tr.wbq, tr.pf, tr.misses, tr.faults = r.WritebackQueueStats(), r.PrefetchStats(), r.MissCount(), r.FaultStats()
	var maxB, sumB float64
	nodes := r.ClusterStats()
	for _, ns := range nodes {
		tr.cluster.failovers += ns.Failovers
		b := float64(ns.ReadBytes + ns.WriteBytes)
		sumB += b
		if b > maxB {
			maxB = b
		}
	}
	if sumB > 0 {
		tr.cluster.imbalance = maxB / (sumB / float64(len(nodes)))
	}
	out.run.Net = r.NetStats()

	// Self times of the run phase: the interpreter's is the run span minus
	// the backend calls it made; the runtime's (rt + cache + swap +
	// transport + netmodel) is those calls minus the far-node calls inside
	// them; what the decorators themselves cost is measured against no-op
	// backends and taken out of each.
	inRun := t.far.byKind(0, numExecOps)
	e, f := t.exec.total(), sumFolds(inRun[:])
	ce, cf := t.cost[0], t.cost[1]
	runSpan := float64(ph.runEnd.Sub(ph.runStart))
	ne, nf := float64(e.Count), float64(f.Count)
	tr.execSelf = runSpan - float64(e.HostNs) - ne*ce.out
	tr.rtSelf = float64(e.HostNs) - ne*ce.in - float64(f.HostNs) - nf*cf.out
	tr.farSelf = float64(f.HostNs) - nf*cf.in
	tr.decorator = ne*(ce.in+ce.out) + nf*(cf.in+cf.out)

	t.foldTracer(tr)
	net := r.Config().Net
	tr.linkBusyNs = (float64(net.WireTime(int(out.wire))) + float64(out.messages)*float64(net.PerMessageOverhead)) / float64(links(r))
	tr.stats = map[string]float64{
		"accesses":        float64(t.exec.ops[opAccess].Count),
		"demand_misses":   float64(tr.misses),
		"miss_spans":      float64(len(tr.missNs)),
		"messages":        float64(out.messages),
		"wire_bytes":      float64(out.wire),
		"wbq_enqueued":    float64(tr.wbq.Enqueued),
		"link_busy_share": ratio(tr.linkBusyNs, float64(out.simNs)),
		"failovers":       float64(tr.cluster.failovers),
		"retries":         float64(out.run.Net.Retries),
	}
	out.traced = tr
}

// links is the number of far-node links the runtime's traffic spreads over.
func links(r *rt.Runtime) int {
	if p := r.Pool(); p != nil {
		return p.NodeCount()
	}
	return 1
}

// statOrder is the print order of tracedRun.stats.
var statOrder = []string{"accesses", "demand_misses", "miss_spans", "messages", "wire_bytes", "wbq_enqueued", "link_busy_share", "failovers", "retries"}

// finishBaseline collects what a cell driven through harness, mtrun or
// serve exposes: its tracer and its result's stats.
func (t *cellTracer) finishBaseline(out *cellOut) {
	tr := &tracedRun{pf: out.run.Prefetch, misses: out.run.DemandMisses}
	for _, ns := range out.run.Cluster {
		tr.cluster.failovers += ns.Failovers
		tr.faults.Wipes += ns.Faults.Wipes
		tr.faults.DownRefusals += ns.Faults.DownRefusals
		tr.faults.Partitioned += ns.Faults.Partitioned
		tr.faults.IOErrors += ns.Faults.IOErrors
		tr.faults.Delays += ns.Faults.Delays
		tr.faults.BitFlips += ns.Faults.BitFlips
	}
	t.foldTracer(tr)
	out.traced = tr
}

// tracedPass runs every cell twice — untraced, then under the tracer and
// decorators with the same plan — asserts the two agree on every simulated
// number, runs the micro-timings, prints the per-layer metrics and writes
// the trace file.
func (b *bench) tracedPass(w io.Writer, budget time.Duration, smoke bool) (*report, error) {
	passStart := time.Now()
	cpu0 := cpuSeconds()
	if err := b.setup(); err != nil {
		return nil, err
	}
	for _, p := range b.progs {
		p.nativeOps = countNativeOps(p)
	}
	execCost, farCost := calibrateTaps()

	rep := &report{Workload: b.name, Seed: b.seed, Traced: true, Metrics: map[string]value{}}
	tf := newTraceFile(b, passStart)
	var plain, traced []cellOut
	for _, c := range b.cells {
		cellStart := time.Now()
		o0 := b.runCell(c, nil, nil)
		t := &cellTracer{tracer: trace.New(), cost: [2]tapCost{execCost, farCost}}
		o1 := b.runCell(c, t, &o0)
		if o0.failed == 0 && o1.failed == 0 && !sameSims(o0.sims, o1.sims) {
			o1.fail(c.id, "traced run", fmt.Errorf("simulated numbers differ from the untraced run: %v vs %v", o1.sims, o0.sims))
		}
		rep.Attempted += o0.attempted + o1.attempted
		rep.Failed += o0.failed + o1.failed
		plain, traced = append(plain, o0), append(traced, o1)
		tf.addCell(c, cellStart, &o0, &o1)
	}

	// The micro-timings share what is left of the budget: numMicro timings
	// of microRounds rounds each, plus their set-up.
	round := (budget - time.Since(passStart)) / (numMicro * microRounds * 5 / 4)
	if round > maxMicroRound {
		round = maxMicroRound
	}
	if round < minMicroRound || smoke {
		round = minMicroRound
	}
	micro, err := microTimings(b.seed, round)
	if err != nil {
		return nil, err
	}

	layers := b.layerMetrics(plain, traced, execCost, farCost)
	for name, v := range micro {
		layers[name] = v
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	layers["harness.peak_heap_mb"] = float64(ms.HeapSys) / (1 << 20)
	layers["harness.cpu_s"] = cpuSeconds() - cpu0
	layers["harness.gc_cpu_share"] = ms.GCCPUFraction
	for _, d := range perLayerMetrics {
		rep.Metrics[d.Name] = value{Value: layers[d.Name], Unit: d.Unit}
	}
	rep.Correct = rep.Failed == 0

	fmt.Fprintf(w, "workload %s  seed %d  sizes %s  traced pass\n", b.name, b.seed, sizeLabel(smoke))
	fmt.Fprintf(w, "decorator cost per call: exec %.1f ns in + %.1f ns out, far node %.1f ns in + %.1f ns out (subtracted from host self times)\n",
		execCost.in, execCost.out, farCost.in, farCost.out)
	b.printCells(w, traced)
	b.printSelfTimes(w, traced)
	b.printCellStats(w, traced)
	printMetrics(w, rep, perLayerMetrics)
	fmt.Fprintf(w, "wall %.1f s, cpu %.1f s: a cpu/wall ratio well under 1 means a noisy neighbour\n",
		time.Since(passStart).Seconds(), layers["harness.cpu_s"])
	fmt.Fprintf(w, "operations: %d attempted, %d failed; traced and untraced passes agree on every simulated number: %v\n",
		rep.Attempted, rep.Failed, rep.Failed == 0)

	fmt.Fprintf(w, "micro-timings: median of %d rounds of %v each\n", microRounds, round)
	path, err := tf.write(rep)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "trace file: %s\n", path)
	return rep, nil
}

// printSelfTimes shows, per driven cell, where the run span's host time
// went. The four parts sum to the span by construction; the decorator line
// is what calibration removed from the other three.
func (b *bench) printSelfTimes(w io.Writer, traced []cellOut) {
	fmt.Fprintf(w, "%-30s %12s %9s %9s %9s %9s\n", "host self time of run phase", "run span ms", "exec %", "rt %", "far %", "decor %")
	for i, c := range b.cells {
		tr := traced[i].traced
		if c.kind != kindMira || tr == nil {
			continue
		}
		span := float64(tr.phases.runEnd.Sub(tr.phases.runStart))
		if span == 0 {
			continue
		}
		fmt.Fprintf(w, "%-30s %12.2f %9.1f %9.1f %9.1f %9.1f\n", c.id, span/1e6,
			100*tr.execSelf/span, 100*tr.rtSelf/span, 100*tr.farSelf/span, 100*tr.decorator/span)
	}
}

// printCellStats lists each driven cell's own counters.
func (b *bench) printCellStats(w io.Writer, traced []cellOut) {
	fmt.Fprintf(w, "%-30s", "per-cell counters")
	for _, k := range statOrder {
		fmt.Fprintf(w, " %15s", k)
	}
	fmt.Fprintln(w)
	for i, c := range b.cells {
		tr := traced[i].traced
		if tr == nil || tr.stats == nil {
			continue
		}
		fmt.Fprintf(w, "%-30s", c.id)
		for _, k := range statOrder {
			fmt.Fprintf(w, " %15.6g", tr.stats[k])
		}
		fmt.Fprintln(w)
	}
}

// layerMetrics aggregates the traced cells into the declared per-layer
// metrics. Decorator (D), runtime-stat (S) and transport-span numbers sum
// over the workload's driven Mira cells; the other tracer (T) numbers sum
// over every cell, so swap.* also sees the swap-based comparison systems.
func (b *bench) layerMetrics(plain, traced []cellOut, execCost, farCost tapCost) map[string]float64 {
	m := map[string]float64{}
	var (
		ops, far                           fold
		execSelf, runSimNs, backendSimNs   float64
		access, pfOps, bulk, fence, flush  fold
		pfSingle, pfEntries, misses        int64
		wbq                                rt.WbqStats
		pf                                 prefetch.Efficacy
		pfMisses                           int64
		missNs, faultNs                    []int64
		netOps, netSim, events             int64
		wire, effective, messages          int64
		busyNs, elapsedNs                  float64
		net                                transport.Stats
		inj                                int64
		failovers, resync                  int64
		imbalance                          float64
		offSubs, offExec, offComm, offByte int64
		planIters, planAccepted            int
		gains, runEq                       []float64
		runPlain, runTraced                float64
		ratios                             = map[harness.System][]float64{}
		miraSim                            = map[string]int64{} // app@frac → Mira sim ns
		counters                           = map[string]int64{}
		nativeOps, nativeHost              float64
	)
	key := func(c cell) string { return fmt.Sprintf("%s@%g", c.app, c.frac()) }

	for i, c := range b.cells {
		o, tr := traced[i], traced[i].traced
		runPlain += plain[i].runHost.Seconds()
		runTraced += o.runHost.Seconds()
		if tr == nil {
			continue
		}
		events += int64(tr.events)
		missNs = append(missNs, tr.missNs...)
		faultNs = append(faultNs, tr.faultNs...)
		for k, v := range tr.counters {
			counters[k] += v
		}
		failovers += tr.cluster.failovers
		resync += tr.resyncNs
		offSubs, offExec, offComm, offByte = offSubs+tr.offSubs, offExec+tr.offExec, offComm+tr.offComm, offByte+tr.offBytes
		inj += tr.faults.DownRefusals + tr.faults.Partitioned + tr.faults.IOErrors + tr.faults.Delays + tr.faults.BitFlips + tr.faults.Wipes
		if tr.cluster.imbalance > imbalance {
			imbalance = tr.cluster.imbalance
		}
		if c.kind == kindPagePolicy {
			pf.Add(tr.pf)
			pfMisses += tr.misses
		}
		if c.kind != kindMira {
			continue
		}

		miraSim[key(c)] = o.simNs
		e, f := tr.execOps, tr.far.byKind(0, numExecOps+1)
		for k := range e {
			ops.Count += e[k].Count
			backendSimNs += float64(e[k].SimNs)
		}
		addFold(&far, sumFolds(f[:]))
		execSelf += tr.execSelf
		runSimNs += float64(tr.runSim)
		addFold(&access, e[opAccess])
		addFold(&pfOps, e[opPrefetch])
		pfSingle += e[opPrefetch].Count
		addFold(&pfOps, e[opPrefetchBatch])
		addFold(&bulk, e[opBulkRead])
		addFold(&bulk, e[opBulkWrite])
		addFold(&fence, e[opFence])
		addFold(&flush, e[opFlushObject])
		flush.SimNs += int64(tr.flushAt.Sub(tr.runSim)) // the closing FlushAll
		pfEntries += tr.batchEntries
		misses += tr.misses
		wbq.Enqueued += tr.wbq.Enqueued
		wbq.Drains += tr.wbq.Drains
		wbq.Pieces += tr.wbq.Pieces
		wbq.DeltaSaved += tr.wbq.DeltaSaved
		pf.Add(tr.pf)
		pfMisses += tr.misses
		netOps, netSim = netOps+tr.netOps, netSim+tr.netSimNs
		wire, effective, messages = wire+o.wire, effective+o.effective, messages+o.messages
		busyNs += tr.linkBusyNs
		elapsedNs += float64(o.simNs)
		net.Add(o.run.Net)

		if p := o.plan; p != nil {
			planIters += len(p.Iterations)
			for _, it := range p.Iterations {
				if it.Accepted {
					planAccepted++
				}
			}
			gains = append(gains, ratio(float64(p.BaselineTime), float64(p.FinalTime)))
			runEq = append(runEq, ratio(plain[i].planHost.Seconds(), plain[i].runHost.Seconds()))
		}
	}
	for _, p := range b.progs {
		nativeOps += float64(p.nativeOps)
		nativeHost += float64(p.nativeHost)
	}

	// Comparison systems relative to the Mira cell of the same program and
	// memory share.
	var mcf10 float64
	for i, c := range b.cells {
		if c.kind != kindBaseline || traced[i].simNs == 0 {
			continue
		}
		mira := miraSim[key(c)]
		if mira == 0 {
			continue
		}
		r := float64(traced[i].simNs) / float64(mira)
		if c.mcf10 {
			mcf10 = r
			continue
		}
		ratios[c.system] = append(ratios[c.system], r)
	}

	m["exec.ops"] = float64(ops.Count)
	m["exec.host_self_ns_per_op"] = ratio(execSelf, float64(ops.Count))
	m["exec.native_host_ns_per_op"] = ratio(nativeHost, nativeOps)
	if runSimNs > 0 {
		m["exec.sim_compute_share"] = 1 - backendSimNs/runSimNs
	}
	m["rt.access.count"] = float64(access.Count)
	m["rt.access.host_ns_per_op"] = perOp(access.HostNs, access.Count, execCost.in)
	m["rt.access.sim_ns_per_op"] = ratio(float64(access.SimNs), float64(access.Count))
	if access.Count > 0 {
		m["rt.hit_ratio"] = 1 - float64(misses)/float64(access.Count)
	}
	m["rt.miss.count"] = float64(len(missNs))
	m["rt.miss.sim_ns_p50"] = float64(percentile(missNs, 0.50))
	m["rt.miss.sim_ns_p99"] = float64(percentile(missNs, 0.99))
	m["rt.prefetch.count"] = float64(pfSingle + pfEntries)
	m["rt.prefetch.host_ns_per_op"] = perOp(pfOps.HostNs, pfOps.Count, execCost.in)
	m["rt.fence.sim_ns"] = float64(fence.SimNs)
	m["rt.flush.sim_ns"] = float64(flush.SimNs)
	m["rt.bulk.count"] = float64(bulk.Count)
	m["rt.bulk.sim_ns"] = float64(bulk.SimNs)
	m["rt.wbq.enqueued"] = float64(wbq.Enqueued)
	m["rt.wbq.drains"] = float64(wbq.Drains)
	m["rt.wbq.pieces_per_drain"] = ratio(float64(wbq.Pieces), float64(wbq.Drains))
	m["rt.wbq.delta_saved_share"] = ratio(float64(wbq.DeltaSaved), float64(effective))
	m["cache.hit"] = float64(counters["cache.hit"])
	m["cache.miss"] = float64(counters["cache.miss"])
	m["cache.evict"] = float64(counters["cache.evict"])
	m["swap.fault.major"] = float64(len(faultNs))
	m["swap.fault.sim_ns_p50"] = float64(percentile(faultNs, 0.50))
	m["swap.evict"] = float64(counters["swap.evict"])
	m["prefetch.issued"] = float64(pf.Issued)
	m["prefetch.accuracy"] = pf.Accuracy()
	m["prefetch.coverage"] = pf.Coverage(pfMisses)
	m["prefetch.late_share"] = ratio(float64(pf.Late), float64(pf.Useful))
	m["transport.messages"] = float64(messages)
	m["transport.bytes_wire"] = float64(wire)
	m["transport.bytes_effective"] = float64(effective)
	m["transport.op_sim_ns_mean"] = ratio(float64(netSim), float64(netOps))
	m["transport.retries"] = float64(net.Retries)
	m["transport.timeouts"] = float64(net.Timeouts)
	m["transport.breaker_trips"] = float64(net.BreakerTrips)
	m["transport.degraded_ops"] = float64(net.DegradedReads + net.QueuedWritebacks)
	m["netmodel.link_busy_share"] = ratio(busyNs, elapsedNs)
	m["codec.ops"] = float64(net.CodecOps)
	m["codec.wire_saved_share"] = ratio(float64(net.WireSaved), float64(effective))
	m["farmem.ops"] = float64(far.Count)
	m["farmem.bytes"] = float64(far.Bytes)
	m["farmem.host_ns_per_op"] = perOp(far.HostNs, far.Count, farCost.in)
	m["farmem.far_cpu_sim_ns"] = float64(far.SimNs + offExec)
	m["cluster.failovers"] = float64(failovers)
	m["cluster.resync_sim_ns"] = float64(resync)
	m["cluster.node_bytes_imbalance"] = imbalance
	m["faults.injected"] = float64(inj)
	m["offload.subs"] = float64(offSubs)
	m["offload.bytes"] = float64(offByte)
	m["offload.exec_sim_ns"] = float64(offExec)
	m["offload.commit_sim_ns"] = float64(offComm)
	m["planner.iterations"] = float64(planIters)
	m["planner.accepted"] = float64(planAccepted)
	m["planner.sim_gain"] = geomean(gains)
	m["planner.run_equivalents"] = geomean(runEq)
	m["baselines.fastswap_sim_ratio"] = geomean(ratios[harness.FastSwap])
	m["baselines.leap_sim_ratio"] = geomean(ratios[harness.Leap])
	m["baselines.aifm_sim_ratio"] = geomean(ratios[harness.AIFM])
	m["baselines.mcf10_fastswap_ratio"] = mcf10
	m["trace.overhead_ratio"] = ratio(runTraced, runPlain)
	m["trace.events"] = float64(events)

	// Kind-specific cells.
	var speedups []float64
	for i, c := range b.cells {
		o := traced[i]
		switch c.kind {
		case kindMT:
			speedups = append(speedups, ratio(float64(o.mtT1), float64(o.simNs)))
			m["mtrun.host_s"] += plain[i].runHost.Seconds()
		case kindServe:
			m["serve.host_s"] += plain[i].runHost.Seconds()
			if o.serveRes == nil {
				continue
			}
			var reqs, shed int
			var p99 sim.Duration
			for _, t := range o.serveRes.Tenants {
				reqs += t.Requests
				shed += t.RejectedTotal()
				if t.P99 > p99 {
					p99 = t.P99
				}
			}
			m["serve.p99_sim_us"] = p99.Micros()
			m["serve.shed_share"] = ratio(float64(shed), float64(reqs))
		}
	}
	m["mtrun.speedup_4t"] = geomean(speedups)
	return m
}

func addFold(dst *fold, src fold) {
	dst.Count += src.Count
	dst.HostNs += src.HostNs
	dst.SimNs += src.SimNs
	dst.Bytes += src.Bytes
}

// perOp is mean host ns per call with the decorator's in-span cost removed.
func perOp(hostNs, count int64, tapIn float64) float64 {
	if count == 0 {
		return 0
	}
	v := float64(hostNs)/float64(count) - tapIn
	if v < 0 {
		return 0
	}
	return v
}

// countNativeOps counts the backend operations the interpreter issues for
// the program's untransformed IR, by running it once more on the native
// configuration under an execTap.
func countNativeOps(p *program) int64 {
	prog := p.w.Program()
	placements := map[string]rt.Placement{}
	var full int64
	for _, o := range prog.Objects {
		placements[o.Name] = rt.Placement{Kind: rt.PlaceLocal}
		full += o.SizeBytes()
	}
	r, err := rt.New(rt.Config{LocalBudget: full + (1 << 20), Placements: placements}, nil)
	if err != nil {
		return 0
	}
	if err := r.Bind(prog); err != nil {
		return 0
	}
	if err := p.w.Init(r); err != nil {
		return 0
	}
	be, tap := tapExec(r)
	ex, err := exec.New(prog, be, exec.Options{Params: p.w.Params()})
	if err != nil {
		return 0
	}
	if _, err := ex.Run(sim.NewClock(0)); err != nil {
		return 0
	}
	return tap.total().Count
}

// traceFile is the traced pass's in-memory span tree, written once at the
// end. Structural spans (workload → cell → phase) carry start and end on
// the host clock, relative to the pass start, and on the simulated clock
// where the phase has one; per-operation spans are folded per (cell, kind)
// under the phase they ran in.
type traceFile struct {
	Workload string           `json:"workload"`
	Seed     uint64           `json:"seed"`
	Clocks   string           `json:"clocks"`
	Spans    []traceSpan      `json:"spans"`
	Metrics  map[string]value `json:"metrics"`
	start    time.Time
}

type traceSpan struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for the root
	Cell   string `json:"cell,omitempty"`
	Name   string `json:"name"`
	// Host clock, ns since the pass started.
	HostStart int64 `json:"host_start_ns"`
	HostEnd   int64 `json:"host_end_ns"`
	// Simulated clock, virtual ns since the cell's run started.
	SimStart *int64 `json:"sim_start_ns,omitempty"`
	SimEnd   *int64 `json:"sim_end_ns,omitempty"`
	// Folded per-operation spans.
	Folded *fold            `json:"folded,omitempty"`
	Hist   map[string]int64 `json:"sim_ns_hist,omitempty"`
	// Self times of a run phase (host ns), decorator cost removed, and the
	// cell's own counters.
	Self  map[string]float64 `json:"host_self_ns,omitempty"`
	Stats map[string]float64 `json:"stats,omitempty"`
}

func newTraceFile(b *bench, start time.Time) *traceFile {
	tf := &traceFile{Workload: b.name, Seed: b.seed, start: start,
		Clocks: "host_*: wall-clock ns since the pass started; sim_*: virtual ns on the cell's sim.Clock"}
	tf.Spans = append(tf.Spans, traceSpan{ID: 0, Parent: -1, Name: "workload " + b.name})
	return tf
}

func (tf *traceFile) rel(t time.Time) int64 { return int64(t.Sub(tf.start)) }

func (tf *traceFile) add(s traceSpan) int {
	s.ID = len(tf.Spans)
	tf.Spans = append(tf.Spans, s)
	return s.ID
}

func histOf(f *fold) map[string]int64 {
	h := map[string]int64{}
	for i, n := range f.Hist {
		if n > 0 {
			h[fmt.Sprintf("lt_2e%d", i)] = n
		}
	}
	return h
}

func (tf *traceFile) addCell(c cell, start time.Time, plain, traced *cellOut) {
	end := time.Now()
	id := tf.add(traceSpan{Parent: 0, Cell: c.id, Name: "cell", HostStart: tf.rel(start), HostEnd: tf.rel(end)})
	at := tf.rel(start)
	if plain.planHost > 0 {
		tf.add(traceSpan{Parent: id, Cell: c.id, Name: "plan", HostStart: at, HostEnd: at + int64(plain.planHost)})
		at += int64(plain.planHost)
	}
	tf.add(traceSpan{Parent: id, Cell: c.id, Name: "run.untraced", HostStart: at, HostEnd: at + int64(plain.runHost)})
	tr := traced.traced
	if tr == nil || c.kind != kindMira {
		at += int64(plain.runHost)
		tf.add(traceSpan{Parent: id, Cell: c.id, Name: "run", HostStart: at, HostEnd: at + int64(traced.runHost)})
		return
	}
	ph := tr.phases
	zero, runSim, flushAt := int64(0), int64(tr.runSim), int64(tr.flushAt)
	tf.add(traceSpan{Parent: id, Cell: c.id, Name: "setup", HostStart: tf.rel(ph.setupStart), HostEnd: tf.rel(ph.runStart)})
	run := tf.add(traceSpan{Parent: id, Cell: c.id, Name: "run", HostStart: tf.rel(ph.runStart), HostEnd: tf.rel(ph.runEnd),
		SimStart: &zero, SimEnd: &runSim,
		Self:  map[string]float64{"exec": tr.execSelf, "rt": tr.rtSelf, "far_node": tr.farSelf, "decorator": tr.decorator},
		Stats: tr.stats})
	farUnder := func(parent, row int) {
		for k := range tr.far.by[row] {
			if f := tr.far.by[row][k]; f.Count > 0 {
				tf.add(traceSpan{Parent: parent, Cell: c.id, Name: "transport→far " + farOpNames[k], Folded: &f})
			}
		}
	}
	for k := range tr.execOps {
		if f := tr.execOps[k]; f.Count > 0 {
			op := tf.add(traceSpan{Parent: run, Cell: c.id, Name: "exec→rt " + execOpNames[k], Folded: &f, Hist: histOf(&f)})
			farUnder(op, k)
		}
	}
	flush := tf.add(traceSpan{Parent: id, Cell: c.id, Name: "flush", HostStart: tf.rel(ph.runEnd), HostEnd: tf.rel(ph.flushEnd),
		SimStart: &runSim, SimEnd: &flushAt})
	farUnder(flush, numExecOps)
	tf.add(traceSpan{Parent: id, Cell: c.id, Name: "verify", HostStart: tf.rel(ph.flushEnd), HostEnd: tf.rel(ph.verifyEnd)})
}

// write stores the trace under benchmark/out/ (this package's directory
// when run from the repository root, the working directory otherwise).
func (tf *traceFile) write(rep *report) (string, error) {
	tf.Spans[0].HostEnd = tf.rel(time.Now())
	tf.Metrics = rep.Metrics
	dir := filepath.Join("benchmark", "out")
	if _, err := os.Stat("benchmark"); err != nil {
		dir = "out"
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := json.MarshalIndent(tf, "", " ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+tf.Workload+".json")
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}
