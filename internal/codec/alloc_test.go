//go:build !race

package codec

import "testing"

// The write-back diff into a dst with room for its ranges, and the wire
// length of a payload, allocate nothing on any benchmark shape.
func TestCodecKernelsAllocatesNothing(t *testing.T) {
	for _, sh := range benchShapes() {
		dst := make([]Range, 0, len(sh.cur))
		if got := testing.AllocsPerRun(100, func() {
			dst = AppendDiffRanges(dst[:0], sh.base, sh.cur, 8)
		}); got != 0 {
			t.Errorf("%s: AppendDiffRanges into a sized dst: %v allocs, want 0", sh.name, got)
		}
		if got := testing.AllocsPerRun(100, func() { EncodedLen(ByteRun, sh.cur) }); got != 0 {
			t.Errorf("%s: EncodedLen: %v allocs, want 0", sh.name, got)
		}
	}
}
