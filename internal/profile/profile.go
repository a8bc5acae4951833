// Package profile implements Mira's coarse-grained run-time profiling
// (§4.1): per-function execution time and time spent inside the Mira
// runtime (cache lookups, misses, evictions), plus allocation-site sizes.
// The planner consumes these to pick which functions and objects to analyze
// ("highest 10% functions", "largest 10% objects") and to compute the
// paper's cache-performance-overhead metric.
package profile

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"mira/internal/sim"
)

// FuncRecord accumulates one function's profile.
type FuncRecord struct {
	Name string
	// Calls counts invocations.
	Calls int64
	// Total is inclusive virtual time across calls.
	Total sim.Duration
	// Runtime is the portion of Total spent inside the far-memory
	// runtime while this function's frame was innermost.
	Runtime sim.Duration
	// Accesses and Misses count far-memory accesses and cache-section /
	// swap misses attributed to the function (§4.1 per-function miss
	// rate).
	Accesses int64
	Misses   int64
}

// MissRate is the function's per-access miss fraction.
func (f *FuncRecord) MissRate() float64 {
	if f.Accesses == 0 {
		return 0
	}
	return float64(f.Misses) / float64(f.Accesses)
}

// Overhead is the paper's cache performance overhead: time in the Mira
// runtime over the remaining execution time. A function that spent ALL its
// time in the runtime has unbounded overhead — +Inf, so it ranks above
// every finite ratio (a raw nanosecond count here would let one degenerate
// record outrank real functions by units, not by ratio).
func (f *FuncRecord) Overhead() float64 {
	rest := f.Total - f.Runtime
	if rest <= 0 {
		if f.Runtime == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return float64(f.Runtime) / float64(rest)
}

// ObjectRecord tracks one allocation site.
type ObjectRecord struct {
	Name  string
	Bytes int64
}

// NetRecord aggregates the transport's resilience events over a profiled
// run: how hard the run had to fight the network to finish. The planner
// ignores it (planning is fault-free), but the harness and CLI report it
// alongside the function profile.
type NetRecord struct {
	Retries          int64
	Timeouts         int64
	Corruptions      int64
	BreakerTrips     int64
	QueuedWritebacks int64
	DegradedReads    int64
	DegradedTime     sim.Duration
	BackoffTime      sim.Duration
}

// Zero reports whether no resilience event was recorded.
func (n NetRecord) Zero() bool { return n == NetRecord{} }

// Collector gathers profile events from the executor. It is not safe for
// concurrent use; multithreaded simulations use one collector per simulated
// thread and merge.
type Collector struct {
	funcs   map[string]*FuncRecord
	objects map[string]*ObjectRecord
	net     NetRecord
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{
		funcs:   make(map[string]*FuncRecord),
		objects: make(map[string]*ObjectRecord),
	}
}

// Call records one completed invocation.
func (f *FuncRecord) Call(elapsed sim.Duration) {
	f.Calls++
	f.Total += elapsed
}

// RuntimeTime attributes runtime-internal time to the function.
func (f *FuncRecord) RuntimeTime(d sim.Duration) { f.Runtime += d }

// Access attributes one far-memory access (and whether it missed) to the
// function.
func (f *FuncRecord) Access(missed bool) {
	f.Accesses++
	if missed {
		f.Misses++
	}
}

// FuncCall records one completed invocation.
func (c *Collector) FuncCall(name string, elapsed sim.Duration) { c.Record(name).Call(elapsed) }

// RuntimeTime attributes runtime-internal time to a function.
func (c *Collector) RuntimeTime(name string, d sim.Duration) { c.Record(name).RuntimeTime(d) }

// AccessEvent attributes one far-memory access (and whether it missed) to
// a function.
func (c *Collector) AccessEvent(name string, missed bool) { c.Record(name).Access(missed) }

// AllocSite records an allocation site's size.
func (c *Collector) AllocSite(obj string, bytes int64) {
	if o, ok := c.objects[obj]; ok {
		o.Bytes += bytes
		return
	}
	c.objects[obj] = &ObjectRecord{Name: obj, Bytes: bytes}
}

// Record returns a function's record, creating it on first sight. The
// executor takes it once per call and taps the record directly; Func is the
// read-side accessor and never creates.
func (c *Collector) Record(name string) *FuncRecord {
	if f, ok := c.funcs[name]; ok {
		return f
	}
	f := &FuncRecord{Name: name}
	c.funcs[name] = f
	return f
}

// RecordNet accumulates transport resilience counters into the profile
// (callers snapshot rt.NetStats deltas per profiled region or per run).
func (c *Collector) RecordNet(n NetRecord) {
	c.net.Retries += n.Retries
	c.net.Timeouts += n.Timeouts
	c.net.Corruptions += n.Corruptions
	c.net.BreakerTrips += n.BreakerTrips
	c.net.QueuedWritebacks += n.QueuedWritebacks
	c.net.DegradedReads += n.DegradedReads
	c.net.DegradedTime += n.DegradedTime
	c.net.BackoffTime += n.BackoffTime
}

// Net returns the accumulated resilience record.
func (c *Collector) Net() NetRecord { return c.net }

// Func returns a function's record (nil if never seen).
func (c *Collector) Func(name string) *FuncRecord { return c.funcs[name] }

// Functions returns all records sorted by descending overhead, ties broken
// by name for determinism.
func (c *Collector) Functions() []*FuncRecord {
	out := make([]*FuncRecord, 0, len(c.funcs))
	for _, f := range c.funcs {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool {
		oi, oj := out[i].Overhead(), out[j].Overhead()
		if oi != oj {
			return oi > oj
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// TopFunctions returns the ceil(frac * n) functions with the highest cache
// performance overhead (§4.1: 10% in the first iteration, 20% in the next,
// …). Functions with zero overhead are excluded — there is nothing to
// optimize.
func (c *Collector) TopFunctions(frac float64) []string {
	all := c.Functions()
	if len(all) == 0 {
		return nil
	}
	k := CeilFrac(frac, len(all))
	if k < 1 {
		k = 1
	}
	if k > len(all) {
		k = len(all)
	}
	var out []string
	for _, f := range all[:k] {
		if f.Overhead() <= 0 {
			break
		}
		out = append(out, f.Name)
	}
	return out
}

// Objects returns allocation sites sorted by descending size.
func (c *Collector) Objects() []*ObjectRecord {
	out := make([]*ObjectRecord, 0, len(c.objects))
	for _, o := range c.objects {
		out = append(out, o)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Bytes != out[j].Bytes {
			return out[i].Bytes > out[j].Bytes
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// LargestObjects returns the ceil(frac * n) largest allocation sites
// (§4.1).
func (c *Collector) LargestObjects(frac float64) []string {
	all := c.Objects()
	if len(all) == 0 {
		return nil
	}
	k := CeilFrac(frac, len(all))
	if k < 1 {
		k = 1
	}
	if k > len(all) {
		k = len(all)
	}
	out := make([]string, 0, k)
	for _, o := range all[:k] {
		out = append(out, o.Name)
	}
	return out
}

// CeilFrac returns ceil(frac * n) computed exactly: products that are
// whole numbers up to floating-point noise (0.3*10, 0.07*100) round to
// that whole number instead of being bumped up, and true fractional parts
// of any size round up (the additive-epsilon idiom this replaces silently
// under-counted whenever the fractional part exceeded the epsilon).
func CeilFrac(frac float64, n int) int {
	if n <= 0 {
		return 0
	}
	p := frac * float64(n)
	if p <= 0 {
		return 0
	}
	fl := math.Floor(p)
	if p-fl <= p*1e-12 {
		return int(fl)
	}
	return int(fl) + 1
}

// TotalRuntime sums runtime-internal time across functions.
func (c *Collector) TotalRuntime() sim.Duration {
	var t sim.Duration
	for _, f := range c.funcs {
		t += f.Runtime
	}
	return t
}

// Merge folds other into c (multithreaded runs).
func (c *Collector) Merge(other *Collector) {
	for name, f := range other.funcs {
		dst := c.Record(name)
		dst.Calls += f.Calls
		dst.Total += f.Total
		dst.Runtime += f.Runtime
		dst.Accesses += f.Accesses
		dst.Misses += f.Misses
	}
	for name, o := range other.objects {
		c.AllocSite(name, o.Bytes)
	}
	c.RecordNet(other.net)
}

// String renders a human-readable profile table.
func (c *Collector) String() string {
	var sb strings.Builder
	sb.WriteString("func                     calls      total    runtime  overhead  missrate\n")
	for _, f := range c.Functions() {
		fmt.Fprintf(&sb, "%-22s %7d %10s %10s %8.3f %9.4f\n",
			f.Name, f.Calls, f.Total, f.Runtime, f.Overhead(), f.MissRate())
	}
	for _, o := range c.Objects() {
		fmt.Fprintf(&sb, "object %-18s %10d bytes\n", o.Name, o.Bytes)
	}
	if !c.net.Zero() {
		fmt.Fprintf(&sb, "net: %d retries, %d timeouts, %d corruptions, %d breaker trips, %d queued writebacks, %d degraded reads, %s degraded, %s backoff\n",
			c.net.Retries, c.net.Timeouts, c.net.Corruptions, c.net.BreakerTrips,
			c.net.QueuedWritebacks, c.net.DegradedReads, c.net.DegradedTime, c.net.BackoffTime)
	}
	return sb.String()
}
