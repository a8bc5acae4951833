// Package dataframe reproduces the paper's DataFrame workload [34]: columnar
// analytics over a taxi-trip-like table. The operators mirror the
// evaluation's jobs:
//
//   - avg/min/max over one column as three consecutive loops — the
//     loop-fusion / batching job of Fig. 23;
//   - a filter writing matching fares to a result vector — the
//     writable-shared multithreading job of Fig. 25;
//   - a group-by-passenger-count aggregation (indirect writes into a small
//     histogram).
//
// The input is a deterministic synthetic generator with the NYC-taxi column
// schema (the paper trains on one year of the dataset and tests on others;
// we emulate train/test inputs with different seeds).
package dataframe

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"mira/internal/exec"
	"mira/internal/ir"
	"mira/internal/sim"
	"mira/internal/workload"
)

// Config sizes the workload.
type Config struct {
	// Rows is the table length.
	Rows int64
	// Seed selects the "input year" (train vs test inputs).
	Seed uint64
	// FilterOnly restricts the program to the filter operator (Fig. 25's
	// multithreaded job).
	FilterOnly bool
	// BatchJobOnly restricts the program to the avg/min/max job
	// (Fig. 23).
	BatchJobOnly bool
	// CreditRate is the fraction of rows with payment type 1 (the
	// filter's match rate). Zero means the default 0.25. Different
	// "input years" with different rates drive the §3 input-adaptation
	// tests.
	CreditRate float64
	// Queries repeats the pipeline (an analytics session runs many
	// queries over one table); zero means 3. Single-operator variants
	// (FilterOnly/BatchJobOnly) always run once.
	Queries int64
}

// DefaultConfig is the harness size.
func DefaultConfig() Config { return Config{Rows: 1 << 16, Seed: 2014} }

// Workload implements workload.Workload.
type Workload struct {
	cfg  Config
	prog *ir.Program

	// The generated table, its byte images and the oracle are pure functions
	// of cfg: each is computed once, on first use, and shared read-only by
	// every session opened on the workload (sync.Once: mtrun's and serve's
	// scheduler goroutines share one Workload).
	genOnce sync.Once
	tab     *table
	refOnce sync.Once
	ref     Expected
}

// New builds the workload.
func New(cfg Config) *Workload {
	if cfg.Rows == 0 {
		cfg = DefaultConfig()
	}
	return &Workload{cfg: cfg, prog: build(cfg)}
}

// Name implements workload.Workload.
func (w *Workload) Name() string { return "dataframe" }

// Program implements workload.Workload.
func (w *Workload) Program() *ir.Program { return w.prog }

// Params implements workload.Workload.
func (w *Workload) Params() map[string]exec.Value { return nil }

// Config returns the sizing.
func (w *Workload) Config() Config { return w.cfg }

// zones is the group-by key space: a quarter of the row count, as a city's
// (zone, hour) key space relates to a day of trips.
func zones(cfg Config) int64 {
	z := cfg.Rows / 4
	if z < 16 {
		z = 16
	}
	return z
}

// FullMemoryBytes implements workload.Workload.
func (w *Workload) FullMemoryBytes() int64 {
	// fare + distance + passengers + payment + zone + result columns,
	// plus aggregation outputs.
	return w.cfg.Rows*8*6 + zones(w.cfg)*8 + 64*8 + 4*8
}

func build(cfg Config) *ir.Program {
	b := ir.NewBuilder("dataframe")
	b.FloatArray("fare", cfg.Rows)
	b.FloatArray("distance", cfg.Rows)
	b.IntArray("passengers", cfg.Rows)
	b.IntArray("payment", cfg.Rows)
	b.IntArray("zone", cfg.Rows)        // pickup-zone id per trip
	b.FloatArray("result", cfg.Rows)    // filter output vector
	b.FloatArray("groupsum", 64)        // per-passenger-count sums
	b.FloatArray("zonesum", zones(cfg)) // per-zone distance sums (large key space)
	b.FloatArray("stats", 4)            // avg, min, max, filter count

	// avgMinMax: three consecutive loops over the fare column (the
	// paper's Fig. 23 job, written the naive way so the compiler must
	// discover the fusion).
	amm := b.Func("avgMinMax")
	sum := amm.Var(ir.CF(0))
	amm.Loop(ir.C(0), ir.C(cfg.Rows), ir.C(1), func(i ir.Expr) {
		v := amm.Load("fare", i, "")
		amm.Set(sum, ir.Add(ir.R(sum.ID), v))
	})
	minV := amm.Var(ir.CF(math.MaxFloat64))
	amm.Loop(ir.C(0), ir.C(cfg.Rows), ir.C(1), func(i ir.Expr) {
		v := amm.Load("fare", i, "")
		amm.Set(minV, ir.Min(ir.R(minV.ID), v))
	})
	maxV := amm.Var(ir.CF(-math.MaxFloat64))
	amm.Loop(ir.C(0), ir.C(cfg.Rows), ir.C(1), func(i ir.Expr) {
		v := amm.Load("fare", i, "")
		amm.Set(maxV, ir.Max(ir.R(maxV.ID), v))
	})
	amm.Store("stats", ir.C(0), "", ir.Div(ir.R(sum.ID), ir.CF(float64(cfg.Rows))))
	amm.Store("stats", ir.C(1), "", ir.R(minV.ID))
	amm.Store("stats", ir.C(2), "", ir.R(maxV.ID))

	// filter: credit-card trips (payment==1) copy their fare to the
	// result vector.
	fl := b.Func("filter")
	count := fl.Var(ir.C(0))
	fl.Loop(ir.C(0), ir.C(cfg.Rows), ir.C(1), func(i ir.Expr) {
		p := fl.Load("payment", i, "")
		fl.If(ir.Eq(p, ir.C(1)), func() {
			v := fl.Load("fare", i, "")
			fl.Store("result", ir.R(count.ID), "", v)
			fl.Set(count, ir.Add(ir.R(count.ID), ir.C(1)))
		}, nil)
	})
	fl.Store("stats", ir.C(3), "", ir.R(count.ID))

	// groupBy: sum distance per passenger count (tiny key space) and per
	// pickup zone (large key space — the indirect, swap-hostile phase of
	// real taxi analytics; zone ids are data-dependent, so the accesses
	// into zonesum are random from the cache's point of view).
	gb := b.Func("groupBy")
	// Each query starts from empty aggregates.
	gb.Loop(ir.C(0), ir.C(64), ir.C(1), func(i ir.Expr) {
		gb.Store("groupsum", i, "", ir.CF(0))
	})
	gb.Loop(ir.C(0), ir.C(zones(cfg)), ir.C(1), func(i ir.Expr) {
		gb.Store("zonesum", i, "", ir.CF(0))
	})
	gb.Loop(ir.C(0), ir.C(cfg.Rows), ir.C(1), func(i ir.Expr) {
		pc := gb.Load("passengers", i, "")
		d := gb.Load("distance", i, "")
		cur := gb.Load("groupsum", pc, "")
		gb.Store("groupsum", pc, "", ir.Add(cur, d))
		z := gb.Load("zone", i, "")
		zcur := gb.Load("zonesum", z, "")
		gb.Store("zonesum", z, "", ir.Add(zcur, d))
	})

	// filterPart: the filter over a row range, writing matches at
	// result[outbase...]. The multithreaded driver (Fig. 25) gives each
	// simulated thread a partition; all threads share the result vector.
	fp := b.Func("filterPart", "start", "end", "outbase")
	cnt := fp.Var(ir.P("outbase"))
	fp.Loop(ir.P("start"), ir.P("end"), ir.C(1), func(i ir.Expr) {
		p := fp.Load("payment", i, "")
		fp.If(ir.Eq(p, ir.C(1)), func() {
			v := fp.Load("fare", i, "")
			fp.Store("result", ir.R(cnt.ID), "", v)
			fp.Set(cnt, ir.Add(ir.R(cnt.ID), ir.C(1)))
		}, nil)
	})
	fp.Return(ir.R(cnt.ID))

	// pipeline: the Fig. 16 job sequence, repeated as an analytics
	// session.
	queries := cfg.Queries
	if queries <= 0 {
		queries = 3
	}
	pl := b.Func("pipeline")
	switch {
	case cfg.FilterOnly:
		pl.Call("filter")
	case cfg.BatchJobOnly:
		pl.Call("avgMinMax")
	default:
		pl.Loop(ir.C(0), ir.C(queries), ir.C(1), func(q ir.Expr) {
			pl.Call("avgMinMax")
			pl.Call("filter")
			pl.Call("groupBy")
		})
	}
	b.SetEntry("pipeline")
	return b.MustProgram()
}

// table is the generated input in native form, plus the byte image of each
// column as Init hands it to InitObject.
type table struct {
	fare, distance []float64
	passengers     []int64
	payment        []int64
	zone           []int64
	images         [5][]byte // fare, distance, passengers, zone, payment
}

// generate returns the input table, building it on first use.
func (w *Workload) generate() *table {
	w.genOnce.Do(func() {
		t := w.build()
		t.images = [5][]byte{floatBytes(t.fare), floatBytes(t.distance), intBytes(t.passengers), intBytes(t.zone), intBytes(t.payment)}
		w.tab = t
	})
	return w.tab
}

func (w *Workload) build() *table {
	rng := sim.NewRNG(w.cfg.Seed)
	t := &table{
		fare:       make([]float64, w.cfg.Rows),
		distance:   make([]float64, w.cfg.Rows),
		passengers: make([]int64, w.cfg.Rows),
		payment:    make([]int64, w.cfg.Rows),
		zone:       make([]int64, w.cfg.Rows),
	}
	nz := int(zones(w.cfg))
	rate := w.cfg.CreditRate
	if rate == 0 {
		rate = 0.25
	}
	for i := int64(0); i < w.cfg.Rows; i++ {
		t.distance[i] = rng.Float64() * 20
		t.fare[i] = 2.5 + t.distance[i]*2.7 + rng.Float64()*5
		t.passengers[i] = int64(rng.Intn(6)) + 1
		if rng.Float64() < rate {
			t.payment[i] = 1
		} else {
			t.payment[i] = []int64{0, 2, 3}[rng.Intn(3)]
		}
		t.zone[i] = int64(rng.Intn(nz))
	}
	return t
}

// Init implements workload.Workload. Every InitObject in the tree copies out
// of the image it is handed; none may write to it.
func (w *Workload) Init(dst workload.ObjectIniter) error {
	t := w.generate()
	for i, name := range []string{"fare", "distance", "passengers", "zone", "payment"} {
		if err := dst.InitObject(name, t.images[i]); err != nil {
			return err
		}
	}
	return nil
}

func floatBytes(xs []float64) []byte {
	out := make([]byte, len(xs)*8)
	for i, x := range xs {
		binary.LittleEndian.PutUint64(out[i*8:], math.Float64bits(x))
	}
	return out
}

func intBytes(xs []int64) []byte {
	out := make([]byte, len(xs)*8)
	for i, x := range xs {
		binary.LittleEndian.PutUint64(out[i*8:], uint64(x))
	}
	return out
}

// Columns exposes the generated payment and fare columns for external
// oracles (the multithreaded filter driver).
func (w *Workload) Columns() (payment []int64, fare []float64) {
	t := w.generate()
	return t.payment, t.fare
}

// Expected computes the operator results natively, replicating the IR's
// evaluation order exactly so floating-point results match bit for bit.
type Expected struct {
	Avg, Min, Max float64
	FilterCount   int64
	GroupSum      [64]float64
	ZoneSum       []float64
}

// Reference is the oracle, computed once; ZoneSum is shared and must not be
// written.
func (w *Workload) Reference() Expected {
	w.refOnce.Do(func() { w.ref = w.reference() })
	return w.ref
}

func (w *Workload) reference() Expected {
	t := w.generate()
	var e Expected
	var sum float64
	for _, v := range t.fare {
		sum += v
	}
	e.Avg = sum / float64(w.cfg.Rows)
	e.Min = math.MaxFloat64
	e.Max = -math.MaxFloat64
	for _, v := range t.fare {
		if v < e.Min {
			e.Min = v
		}
		if v > e.Max {
			e.Max = v
		}
	}
	e.ZoneSum = make([]float64, zones(w.cfg))
	for i := int64(0); i < w.cfg.Rows; i++ {
		if t.payment[i] == 1 {
			e.FilterCount++
		}
		e.GroupSum[t.passengers[i]] += t.distance[i]
		e.ZoneSum[t.zone[i]] += t.distance[i]
	}
	return e
}

// Verify implements workload.Verifier.
func (w *Workload) Verify(d workload.ObjectDumper) error {
	e := w.Reference()
	stats, err := d.DumpObject("stats")
	if err != nil {
		return err
	}
	get := func(i int) float64 {
		return math.Float64frombits(binary.LittleEndian.Uint64(stats[i*8:]))
	}
	if !w.cfg.FilterOnly {
		if got := get(0); math.Abs(got-e.Avg) > 1e-9 {
			return fmt.Errorf("dataframe: avg %g, want %g", got, e.Avg)
		}
		if got := get(1); got != e.Min {
			return fmt.Errorf("dataframe: min %g, want %g", got, e.Min)
		}
		if got := get(2); got != e.Max {
			return fmt.Errorf("dataframe: max %g, want %g", got, e.Max)
		}
	}
	if !w.cfg.BatchJobOnly {
		if got := int64(get(3)); got != e.FilterCount {
			return fmt.Errorf("dataframe: filter count %d, want %d", got, e.FilterCount)
		}
	}
	if !w.cfg.FilterOnly && !w.cfg.BatchJobOnly {
		gs, err := d.DumpObject("groupsum")
		if err != nil {
			return err
		}
		for i := 0; i < 64; i++ {
			got := math.Float64frombits(binary.LittleEndian.Uint64(gs[i*8:]))
			if math.Abs(got-e.GroupSum[i]) > 1e-6 {
				return fmt.Errorf("dataframe: groupsum[%d] = %g, want %g", i, got, e.GroupSum[i])
			}
		}
		zs, err := d.DumpObject("zonesum")
		if err != nil {
			return err
		}
		for i := range e.ZoneSum {
			got := math.Float64frombits(binary.LittleEndian.Uint64(zs[i*8:]))
			if math.Abs(got-e.ZoneSum[i]) > 1e-6 {
				return fmt.Errorf("dataframe: zonesum[%d] = %g, want %g", i, got, e.ZoneSum[i])
			}
		}
	}
	return nil
}
