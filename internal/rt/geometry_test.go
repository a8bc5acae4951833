package rt

import (
	"reflect"
	"testing"

	"mira/internal/cache"
)

func twoSections(budget, pool, a, b int64) Config {
	return Config{
		LocalBudget: budget,
		SwapPool:    pool,
		Net:         DefaultNet(),
		Sections: []SectionSpec{
			{Cache: cache.Config{Name: "a", Structure: cache.SetAssoc, Ways: 4, LineBytes: 2048, SizeBytes: a}},
			{Cache: cache.Config{Name: "b", Structure: cache.FullAssoc, LineBytes: 2048, SizeBytes: b}},
		},
	}
}

// TestGeometry: sizes are floored to the lines and pages the runtime builds,
// with the minimum of one each; everything else, and the receiver, is left
// alone.
func TestGeometry(t *testing.T) {
	// The planner's mirrored sizing samples on gpt2 at 35 %: "a at 0.2 of
	// 84 583 B" and "b at 0.8" are one byte apart and both 8 + 33 lines.
	x, y := twoSections(1<<20, 0, 16916, 67667), twoSections(1<<20, 0, 16917, 67666)
	if !reflect.DeepEqual(x.Geometry(), y.Geometry()) || x.CarveUpBytes() != y.CarveUpBytes() {
		t.Errorf("mirrored samples differ: %+v (%d B) vs %+v (%d B)", x.Geometry(), x.CarveUpBytes(), y.Geometry(), y.CarveUpBytes())
	}
	if g := x.Geometry(); g.Sections[0].Cache.SizeBytes != 8*2048 || g.Sections[1].Cache.SizeBytes != 33*2048 {
		t.Errorf("geometry of 16916 + 67667 B in 2 KiB lines = %d + %d B, want 8 + 33 lines",
			g.Sections[0].Cache.SizeBytes, g.Sections[1].Cache.SizeBytes)
	}
	if x.Sections[0].Cache.SizeBytes != 16916 {
		t.Errorf("Geometry wrote to its receiver's sections: %d", x.Sections[0].Cache.SizeBytes)
	}
	for _, c := range []struct{ pool, want int64 }{
		{0, 0}, {-5, -5}, {1, 4096}, {4095, 4096}, {4096, 4096}, {8191, 4096}, {8192, 8192},
	} {
		if got := twoSections(1<<20, c.pool, 100, 2048).Geometry(); got.SwapPool != c.want {
			t.Errorf("pool of %d B: geometry %d B, want %d", c.pool, got.SwapPool, c.want)
		} else if got.Sections[0].Cache.SizeBytes != 2048 {
			t.Errorf("a 100 B section of 2 KiB lines: geometry %d B, want one line", got.Sections[0].Cache.SizeBytes)
		}
	}
	// A section Validate will reject is passed through, not divided by.
	bad := twoSections(1<<20, 0, 100, 100)
	bad.Sections[0].Cache.LineBytes = 0
	if g := bad.Geometry(); g.Sections[0].Cache.SizeBytes != 100 {
		t.Errorf("invalid section resized to %d", g.Sections[0].Cache.SizeBytes)
	}
}

// TestCarveUpBytesDecidesTheBudgetCheck is why geometry alone does not
// identify a run: of two configurations that build the same caches, the byte
// larger one can be the one the budget refuses.
func TestCarveUpBytesDecidesTheBudgetCheck(t *testing.T) {
	fits, over := twoSections(84583, 0, 16916, 67667), twoSections(84583, 0, 16917, 67667)
	if !reflect.DeepEqual(fits.Geometry(), over.Geometry()) {
		t.Fatal("the two configurations were meant to share a geometry")
	}
	if err := fits.Validate(); err != nil {
		t.Errorf("%d B in a budget of %d: %v", fits.CarveUpBytes(), fits.LocalBudget, err)
	}
	if err := over.Validate(); err == nil {
		t.Errorf("%d B in a budget of %d validated", over.CarveUpBytes(), over.LocalBudget)
	}
}
