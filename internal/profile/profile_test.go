package profile

import (
	"math"
	"strings"
	"testing"

	"mira/internal/sim"
)

func TestOverheadMetric(t *testing.T) {
	c := NewCollector()
	c.FuncCall("f", 100*sim.Microsecond)
	c.RuntimeTime("f", 20*sim.Microsecond)
	rec := c.Func("f")
	// overhead = runtime / (total - runtime) = 20/80
	if got := rec.Overhead(); got != 0.25 {
		t.Fatalf("overhead = %v, want 0.25", got)
	}
}

func TestOverheadZeroWhenNoRuntime(t *testing.T) {
	c := NewCollector()
	c.FuncCall("f", 100)
	if got := c.Func("f").Overhead(); got != 0 {
		t.Fatalf("overhead = %v, want 0", got)
	}
}

func TestTopFunctionsFractions(t *testing.T) {
	c := NewCollector()
	names := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"}
	for i, n := range names {
		c.FuncCall(n, 100*sim.Microsecond)
		c.RuntimeTime(n, sim.Duration(i+1)*sim.Microsecond)
	}
	top := c.TopFunctions(0.10)
	if len(top) != 1 || top[0] != "j" {
		t.Fatalf("top 10%% = %v, want [j]", top)
	}
	top = c.TopFunctions(0.20)
	if len(top) != 2 || top[0] != "j" || top[1] != "i" {
		t.Fatalf("top 20%% = %v, want [j i]", top)
	}
	if got := c.TopFunctions(1.0); len(got) != 10 {
		t.Fatalf("top 100%% has %d entries", len(got))
	}
}

func TestTopFunctionsExcludesZeroOverhead(t *testing.T) {
	c := NewCollector()
	c.FuncCall("pure", 100)
	top := c.TopFunctions(1.0)
	if len(top) != 0 {
		t.Fatalf("zero-overhead function selected: %v", top)
	}
}

func TestLargestObjects(t *testing.T) {
	c := NewCollector()
	c.AllocSite("small", 100)
	c.AllocSite("big", 10000)
	c.AllocSite("mid", 1000)
	got := c.LargestObjects(0.34)
	if len(got) != 2 || got[0] != "big" || got[1] != "mid" {
		t.Fatalf("largest = %v", got)
	}
}

func TestMerge(t *testing.T) {
	a, b := NewCollector(), NewCollector()
	a.FuncCall("f", 10)
	a.RuntimeTime("f", 2)
	b.FuncCall("f", 30)
	b.RuntimeTime("f", 6)
	b.AllocSite("o", 64)
	a.Merge(b)
	rec := a.Func("f")
	if rec.Calls != 2 || rec.Total != 40 || rec.Runtime != 8 {
		t.Fatalf("merged record %+v", rec)
	}
	if len(a.Objects()) != 1 {
		t.Fatal("merged object missing")
	}
}

func TestStringRendering(t *testing.T) {
	c := NewCollector()
	c.FuncCall("f", 10*sim.Microsecond)
	c.AllocSite("o", 64)
	s := c.String()
	if !strings.Contains(s, "f") || !strings.Contains(s, "o") {
		t.Fatalf("render missing entries:\n%s", s)
	}
}

func TestDeterministicOrdering(t *testing.T) {
	c := NewCollector()
	// Equal overheads: ties broken by name.
	for _, n := range []string{"zeta", "alpha", "mid"} {
		c.FuncCall(n, 100)
		c.RuntimeTime(n, 50)
	}
	fs := c.Functions()
	if fs[0].Name != "alpha" || fs[1].Name != "mid" || fs[2].Name != "zeta" {
		t.Fatalf("tie-break ordering wrong: %v, %v, %v", fs[0].Name, fs[1].Name, fs[2].Name)
	}
}

func TestOverheadAllRuntimeIsInf(t *testing.T) {
	c := NewCollector()
	// Pathological record: every nanosecond inside the runtime. The old
	// code returned the raw nanosecond count, so a tiny degenerate record
	// (e.g. 3ns all-runtime) ranked below a normal function with overhead
	// 5.0 — or above everything when its Runtime was huge — by units, not
	// by ratio.
	c.FuncCall("degenerate", 3)
	c.RuntimeTime("degenerate", 3)
	got := c.Func("degenerate").Overhead()
	if !math.IsInf(got, 1) {
		t.Fatalf("all-runtime overhead = %v, want +Inf", got)
	}
	// And it must outrank any finite overhead, however large.
	c.FuncCall("busy", 1000*sim.Microsecond)
	c.RuntimeTime("busy", 999*sim.Microsecond)
	fs := c.Functions()
	if fs[0].Name != "degenerate" {
		t.Fatalf("ranking = [%s %s], want degenerate first", fs[0].Name, fs[1].Name)
	}
}

func TestFunctionsOrdersInfTiesByName(t *testing.T) {
	c := NewCollector()
	for _, n := range []string{"zed", "apple", "mango"} {
		c.FuncCall(n, 10)
		c.RuntimeTime(n, 10) // rest == 0 -> +Inf for all three
	}
	fs := c.Functions()
	want := []string{"apple", "mango", "zed"}
	for i, w := range want {
		if fs[i].Name != w {
			t.Fatalf("Inf tie-break: got %s at %d, want %s", fs[i].Name, i, w)
		}
	}
}

func TestCeilFrac(t *testing.T) {
	cases := []struct {
		frac float64
		n    int
		want int
	}{
		{0.1, 10, 1},
		{0.3, 10, 3},   // 0.3*10 = 2.9999... in FP; must not bump to 4
		{0.07, 100, 7}, // same FP-noise shape
		{0.20000001, 10, 3},
		{0.15, 10, 2},
		{1.0, 5, 5},
		{0.5, 7, 4},
		{0.0, 10, 0},
		{0.1, 0, 0},
		{0.1, -3, 0},
	}
	for _, tc := range cases {
		if got := CeilFrac(tc.frac, tc.n); got != tc.want {
			t.Errorf("CeilFrac(%v, %d) = %d, want %d", tc.frac, tc.n, got, tc.want)
		}
	}
}

func TestTotalRuntime(t *testing.T) {
	c := NewCollector()
	c.RuntimeTime("a", 5)
	c.RuntimeTime("b", 7)
	if c.TotalRuntime() != 12 {
		t.Fatalf("TotalRuntime = %v", c.TotalRuntime())
	}
}

func TestMissRateAccounting(t *testing.T) {
	c := NewCollector()
	for i := 0; i < 10; i++ {
		c.AccessEvent("f", i%4 == 0)
	}
	rec := c.Func("f")
	if rec.Accesses != 10 || rec.Misses != 3 {
		t.Fatalf("accesses=%d misses=%d", rec.Accesses, rec.Misses)
	}
	if got := rec.MissRate(); got != 0.3 {
		t.Fatalf("miss rate %v, want 0.3", got)
	}
	if (&FuncRecord{}).MissRate() != 0 {
		t.Fatal("zero-access miss rate not zero")
	}
}

func TestMergeCarriesAccessCounters(t *testing.T) {
	a, b := NewCollector(), NewCollector()
	a.AccessEvent("f", true)
	b.AccessEvent("f", false)
	a.Merge(b)
	rec := a.Func("f")
	if rec.Accesses != 2 || rec.Misses != 1 {
		t.Fatalf("merged accesses=%d misses=%d", rec.Accesses, rec.Misses)
	}
}

// TestRecordCreatesFuncDoesNot: Record is the executor's once-per-call
// accessor and makes the record; Func stays the read side and returns nil for
// a name nobody recorded. Taps on the record and by name land in one place.
func TestRecordCreatesFuncDoesNot(t *testing.T) {
	c := NewCollector()
	if c.Func("f") != nil {
		t.Fatal("Func invented a record")
	}
	rec := c.Record("f")
	if rec == nil || c.Func("f") != rec || c.Record("f") != rec {
		t.Fatal("Record did not create one stable record")
	}
	rec.Call(10)
	rec.RuntimeTime(4)
	rec.Access(true)
	c.FuncCall("f", 5)
	c.RuntimeTime("f", 1)
	c.AccessEvent("f", false)
	want := FuncRecord{Name: "f", Calls: 2, Total: 15, Runtime: 5, Accesses: 2, Misses: 1}
	if *rec != want {
		t.Fatalf("record %+v, want %+v", *rec, want)
	}
}
