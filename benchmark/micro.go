package main

import (
	"fmt"
	"time"

	"mira/internal/analysis"
	"mira/internal/cache"
	"mira/internal/codec"
	"mira/internal/codegen"
	"mira/internal/farmem"
	"mira/internal/netmodel"
	"mira/internal/planner"
	"mira/internal/sim"
	"mira/internal/solver"
	"mira/internal/swap"
	"mira/internal/transport"
)

// Host micro-timings of single layers' public functions on seeded inputs.
// Each is the median of microRounds rounds of at least microRound each; a
// round runs the body in batches until the time is up and reports ns per
// call. They say what a layer costs in isolation, next to the decorator
// numbers that say what it cost inside a workload.
const (
	microRounds   = 5
	numMicro      = 17 // timings microTimings makes
	maxMicroRound = 200 * time.Millisecond
	minMicroRound = time.Millisecond
)

// sink keeps measured calls from being optimised away.
var sink int

// microTimer runs micro-timings with rounds of a fixed length.
type microTimer struct{ round time.Duration }

// timeIt returns the median ns per call of body, where body(n) makes n
// calls.
func (mt microTimer) timeIt(body func(n int)) float64 {
	body(64) // warm caches and lazy state
	var rounds []float64
	for r := 0; r < microRounds; r++ {
		n, calls := 256, 0
		h0 := time.Now()
		for time.Since(h0) < mt.round {
			body(n)
			calls += n
		}
		rounds = append(rounds, float64(time.Since(h0))/float64(calls))
	}
	return median(rounds)
}

// microTimings runs every micro-timing, each round lasting at least round,
// and returns metric name → value.
func microTimings(seed uint64, round time.Duration) (map[string]float64, error) {
	timeIt := microTimer{round}.timeIt
	// slowCall times a call too slow to make 256 of per batch: ns per call.
	slowCall := func(call func()) float64 {
		const every = 64
		return every * timeIt(func(n int) {
			for k := 0; k < n; k += every {
				call()
			}
		})
	}
	out := map[string]float64{}
	rng := sim.NewRNG(sim.SplitSeed(seed, "micro"))

	// cache: Lookup hit and Reserve-with-eviction per structure.
	for _, s := range []struct {
		key string
		st  cache.Structure
	}{{"direct", cache.Direct}, {"setassoc", cache.SetAssoc}, {"fullassoc", cache.FullAssoc}} {
		const lines, lineBytes = 1024, 64
		cfg := cache.Config{Name: "m", Structure: s.st, Ways: 4, LineBytes: lineBytes, SizeBytes: lines * lineBytes}
		sec, err := cache.New(cfg)
		if err != nil {
			return nil, err
		}
		for i := 0; i < lines; i++ {
			sec.Reserve(uint64(i * lineBytes))
		}
		order := rng.Perm(lines)
		i := 0
		out["cache.lookup_host_ns."+s.key] = timeIt(func(n int) {
			for k := 0; k < n; k++ {
				if _, ok := sec.Lookup(uint64(order[i%lines] * lineBytes)); ok {
					sink++
				}
				i++
			}
		})
		next := uint64(lines * lineBytes)
		out["cache.reserve_host_ns."+s.key] = timeIt(func(n int) {
			for k := 0; k < n; k++ {
				_, v := sec.Reserve(next) // never resident: every call evicts
				sink += len(v.Data)
				next += lineBytes
			}
		})
	}

	// swap: access to a resident page.
	{
		node := farmem.NewNode(farmem.DefaultNodeConfig())
		const region = 64 * swap.PageBytes
		base, err := node.Alloc(region)
		if err != nil {
			return nil, err
		}
		link := transport.New(node, netmodel.DefaultConfig())
		sc, err := swap.New(swap.DefaultConfig(region), link, base, region, nil)
		if err != nil {
			return nil, err
		}
		clk := sim.NewClock(0)
		var buf [8]byte
		for p := 0; p < 64; p++ {
			if err := sc.Read(clk, base+uint64(p*swap.PageBytes), buf[:]); err != nil {
				return nil, err
			}
		}
		i := 0
		out["swap.access_host_ns"] = timeIt(func(n int) {
			for k := 0; k < n; k++ {
				_ = sc.Read(clk, base+uint64((i%64)*swap.PageBytes+(i%500)*8), buf[:])
				i++
			}
		})
	}

	// transport: one-sided 4 KiB read and a 16×128 B doorbell gather on a
	// fresh node; netmodel: one link acquisition.
	{
		node := farmem.NewNode(farmem.DefaultNodeConfig())
		base, err := node.Alloc(1 << 20)
		if err != nil {
			return nil, err
		}
		t := transport.New(node, netmodel.DefaultConfig())
		page := make([]byte, 4096)
		now := sim.Time(0)
		i := 0
		out["transport.read4k_host_ns"] = timeIt(func(n int) {
			for k := 0; k < n; k++ {
				now, _ = t.ReadOneSided(now, base+uint64(i%256)*4096, page)
				i++
			}
		})
		addrs, sizes := make([]uint64, 16), make([]int, 16)
		for j := range addrs {
			addrs[j], sizes[j] = base+uint64(j)*4096, 128
		}
		out["transport.gather16_host_ns"] = timeIt(func(n int) {
			for k := 0; k < n; k++ {
				var data []byte
				data, now, _ = t.GatherOneSided(now, addrs, sizes)
				sink += len(data)
			}
		})
		bw := netmodel.NewBandwidth(netmodel.DefaultConfig())
		out["netmodel.acquire_host_ns"] = timeIt(func(n int) {
			for k := 0; k < n; k++ {
				now = bw.Acquire(now, 4096)
			}
		})
	}

	// codec: ByteRun encode/decode and changed-range diff+patch over a
	// 4 KiB line of seeded, half-compressible bytes.
	{
		const n4k = 4096
		src := make([]byte, n4k)
		for i := 0; i < n4k; {
			run := 1 + rng.Intn(24)
			b := byte(rng.Intn(256))
			for j := 0; j < run && i < n4k; j++ {
				if run < 4 {
					b = byte(rng.Intn(256))
				}
				src[i] = b
				i++
			}
		}
		cur := append([]byte(nil), src...)
		for i := 0; i < n4k; i += 64 {
			cur[i+rng.Intn(8)] ^= 0xff
		}
		enc := codec.AppendByteRun(nil, src)
		dst := make([]byte, n4k)
		scratch := make([]byte, 0, 2*n4k)
		mbs := func(nsPerCall float64) float64 { return n4k / nsPerCall * 1e3 }
		out["codec.encode_mb_s"] = mbs(timeIt(func(n int) {
			for k := 0; k < n; k++ {
				sink += len(codec.AppendByteRun(scratch[:0], src))
			}
		}))
		if _, err := codec.DecodeByteRun(enc, dst); err != nil {
			return nil, fmt.Errorf("micro: byte-run round trip: %w", err)
		}
		out["codec.decode_mb_s"] = mbs(timeIt(func(n int) {
			for k := 0; k < n; k++ {
				m, _ := codec.DecodeByteRun(enc, dst)
				sink += m
			}
		}))
		out["codec.diff_mb_s"] = mbs(timeIt(func(n int) {
			for k := 0; k < n; k++ {
				sink += len(codec.DiffRanges(src, cur, 8)) + len(codec.EncodeDelta(src, cur))
			}
		}))
	}

	// sim: one scheduler handoff, four threads yielding in turn.
	{
		const threads = 4
		out["sim.handoff_host_ns"] = timeIt(func(n int) {
			g := sim.NewThreadGroup(threads, 0)
			s := sim.NewScheduler(g)
			for t := 0; t < threads; t++ {
				s.Spawn(func(th *sim.Thread) error {
					for k := 0; k < n/threads; k++ {
						th.Clock().Advance(1)
						th.Yield()
					}
					return nil
				})
			}
			_ = s.Run()
		})
	}

	// planner stages on a fixed small program: static analysis, code
	// generation against an accepted plan, and the sizing ILP on a fixed
	// 8-section problem.
	{
		w, err := buildProgram("dataframe", smokeSizes, 1)
		if err != nil {
			return nil, err
		}
		plan, err := planner.Plan(w, planner.Options{LocalBudget: w.FullMemoryBytes() / 4})
		if err != nil {
			return nil, fmt.Errorf("micro: plan: %w", err)
		}
		prog := w.Program()
		out["analysis.host_ms"] = slowCall(func() {
			if r, _ := analysis.Analyze(prog, nil, nil); r != nil {
				sink++
			}
		}) / 1e6
		out["codegen.host_ms"] = slowCall(func() {
			if p, _ := codegen.Apply(prog, plan.Plan); p != nil {
				sink++
			}
		}) / 1e6

		var prob solver.Problem
		prob.Budget = 1 << 20
		for i := 0; i < 8; i++ {
			s := solver.Section{Name: fmt.Sprintf("s%d", i), Start: i, End: i + 4}
			for c := 1; c <= 4; c++ {
				s.Candidates = append(s.Candidates, solver.Candidate{
					SizeBytes: int64(c) * (96 << 10),
					Overhead:  float64(1+rng.Intn(1000)) / float64(c),
				})
			}
			prob.Sections = append(prob.Sections, s)
		}
		if _, _, err := solver.Solve(prob); err != nil {
			return nil, fmt.Errorf("micro: solver: %w", err)
		}
		out["solver.ilp_host_us"] = slowCall(func() {
			a, _, _ := solver.Solve(prob)
			sink += len(a)
		}) / 1e3
	}
	return out, nil
}
