package analysis

import (
	"reflect"
	"testing"
)

func TestLowerPhasesMapsAndDeduplicates(t *testing.T) {
	phases := []Phase{
		{Object: "a", Start: 0, Stride: 1, Count: 8},
		{Object: "b", Start: 0, Stride: 1, Count: 4},
	}
	// Four 16-byte elements per 64-byte line for "a"; "b" is not covered by
	// the plane and must be skipped entirely.
	units := LowerPhases(phases, func(obj string, elem int64) (int64, bool) {
		if obj != "a" {
			return 0, false
		}
		return elem / 4, true
	})
	if want := []int64{0, 1}; !reflect.DeepEqual(units, want) {
		t.Fatalf("units = %v, want %v", units, want)
	}
}

func TestLowerPhasesBackwardStride(t *testing.T) {
	phases := []Phase{{Object: "a", Start: 9, Stride: -1, Count: 10}}
	units := LowerPhases(phases, func(_ string, elem int64) (int64, bool) {
		return elem / 5, true
	})
	if want := []int64{1, 0}; !reflect.DeepEqual(units, want) {
		t.Fatalf("units = %v, want %v", units, want)
	}
}
