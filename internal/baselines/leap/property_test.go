package leap

import (
	"testing"
	"testing/quick"

	"mira/internal/prefetch"
	"mira/internal/sim"
)

// Property: the Boyer-Moore majority vote is guaranteed to find a stride
// that holds a strict majority of the window. Feed a fault stream where
// more than half the deltas equal the stride and the rest are noise; once
// the window is warm, every prediction must follow the majority stride.
func TestPropertyMajorityStrideDetected(t *testing.T) {
	f := func(seed uint64, strideRaw uint8) bool {
		stride := int64(strideRaw%5) + 1
		p := prefetch.NewLeap(8, 2)
		rng := sim.NewRNG(seed)
		page := int64(1000)
		warm := 0
		noise := int64(7)
		for i := 0; i < 200; i++ {
			// Roughly 3 of 4 steps follow the stride; the rest are
			// noise deltas that never repeat (7, 8, 9, ...), so the
			// only delta that can ever hold a window majority is the
			// stride itself.
			d := stride
			if rng.Intn(4) == 0 {
				d = noise
				noise++
			}
			page += d
			preds := p.OnMiss(page, nil)
			warm++
			if warm < 20 || d != stride || len(preds) == 0 {
				continue
			}
			for k, pr := range preds {
				if pr != page+stride*int64(k+1) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: a fault stream with no majority trend (uniform random deltas)
// must not trigger predictions once enough distinct deltas populate the
// window — Leap's guard against polluting the cache on random access.
func TestPropertyNoMajorityNoPrediction(t *testing.T) {
	f := func(seed uint64) bool {
		p := prefetch.NewLeap(8, 2)
		rng := sim.NewRNG(seed)
		page := int64(0)
		fired := 0
		for i := 0; i < 100; i++ {
			// Deltas drawn uniformly from a wide range: a strict
			// majority of one value in a window of 8 is vanishingly
			// unlikely.
			page += int64(rng.Intn(1 << 16)) // non-negative keeps pages increasing
			if len(p.OnMiss(page, nil)) > 0 {
				fired++
			}
		}
		return fired == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: predictions never include the faulting page itself and are
// strictly monotone along the detected stride.
func TestPropertyPredictionShape(t *testing.T) {
	f := func(seed uint64, depthRaw uint8) bool {
		depth := int64(depthRaw%4) + 1
		p := prefetch.NewLeap(6, depth)
		rng := sim.NewRNG(seed)
		stride := int64(rng.Intn(9)) - 4 // -4..4, may be 0 or negative
		page := int64(1 << 20)
		for i := 0; i < 40; i++ {
			page += stride
			preds := p.OnMiss(page, nil)
			if int64(len(preds)) > depth {
				return false
			}
			for _, pr := range preds {
				if pr == page {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
