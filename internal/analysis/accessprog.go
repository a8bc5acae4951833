package analysis

// Phase is one contiguous burst of a program's access sequence: Count
// accesses to Object starting at element Start, advancing Stride elements per
// step. An ordered phase list is the access tape a programmed prefetcher
// walks (3PO's prefetch program).
type Phase struct {
	Object string
	Start  int64
	Stride int64
	Count  int64
}

// maxProgramUnits caps a lowered prefetch program; truncating it only
// prefetches less.
const maxProgramUnits = 1 << 20

// LowerPhases expands element-granular phases into the plane-unit sequence
// a programmed prefetcher consumes. unitOf maps (object, element) to the
// plane's unit — page number or section line index — returning false for
// objects the plane does not cover (they are skipped). Consecutive
// duplicate units collapse, so a whole line or page of element accesses
// costs one entry; output is capped, truncating the tail.
func LowerPhases(phases []Phase, unitOf func(obj string, elem int64) (int64, bool)) []int64 {
	var out []int64
	push := func(u int64) bool {
		if n := len(out); n > 0 && out[n-1] == u {
			return true
		}
		if len(out) >= maxProgramUnits {
			return false
		}
		out = append(out, u)
		return true
	}
	for _, ph := range phases {
		for k := int64(0); k < ph.Count; k++ {
			u, ok := unitOf(ph.Object, ph.Start+k*ph.Stride)
			if !ok {
				break
			}
			if !push(u) {
				return out
			}
		}
	}
	return out
}
