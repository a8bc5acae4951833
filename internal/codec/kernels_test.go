package codec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"
)

// maxFuzzGap bounds the join gaps the kernel checks draw: 0..4096 covers a
// page-sized line's every gap.
const maxFuzzGap = 4096

// applyEdits returns a copy of base with each 3-byte edit — a little-endian
// uint16 offset taken modulo len(base), then a byte XORed in there — applied.
func applyEdits(base, edits []byte) []byte {
	cur := slices.Clone(base)
	if len(cur) == 0 {
		return cur
	}
	for ; len(edits) >= 3; edits = edits[3:] {
		cur[int(binary.LittleEndian.Uint16(edits))%len(cur)] ^= edits[2]
	}
	return cur
}

// editAt encodes one edit for applyEdits.
func editAt(off int, x byte) []byte {
	return []byte{byte(off), byte(off >> 8), x}
}

// checkKernels holds the word-wise kernels to the byte loops on a base, its
// edited copy and two join gaps, the second no narrower than the first.
func checkKernels(t *testing.T, base, edits []byte, gap, wider uint16) {
	t.Helper()
	cur := applyEdits(base, edits)
	g1 := int(gap) % (maxFuzzGap + 1)
	g2 := g1 + int(wider)%(maxFuzzGap+1-g1)
	rs := DiffRanges(base, cur, g1)
	if want := refDiffRanges(base, cur, g1); !slices.Equal(rs, want) {
		t.Fatalf("DiffRanges(gap %d) = %v, byte loop %v", g1, rs, want)
	}
	want2 := refDiffRanges(base, cur, g2)
	if got := MergeRanges(slices.Clone(rs), g2); !slices.Equal(got, want2) {
		t.Fatalf("MergeRanges(DiffRanges(gap %d), %d) = %v, DiffRanges(gap %d) %v", g1, g2, got, g2, want2)
	}
	for _, x := range [][]byte{base, cur} {
		if got, want := byteRunLen(x), refByteRunLen(x); got != want {
			t.Fatalf("byteRunLen = %d, byte loop %d (len %d)", got, want, len(x))
		}
		if got, want := EncodedLen(ByteRun, x), min(len(AppendByteRun(nil, x)), len(x)); got != want {
			t.Fatalf("EncodedLen = %d, want %d (len %d)", got, want, len(x))
		}
	}
	got := make([]byte, len(base))
	if err := ApplyDelta(base, EncodeDelta(base, cur), got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, cur) {
		t.Fatalf("ApplyDelta(EncodeDelta) differs from cur at %d", firstDiff(got, cur))
	}
}

func firstDiff(a, b []byte) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// seqLine is a seqscan-shaped 2 KiB line: records of two little-endian
// int64s, a key and a val — packed into 16 bytes rather than seqscan's 64, so
// that a scan's changes are as dense as the shape gets.
func seqLine() []byte {
	out := make([]byte, 2048)
	for i := 0; i < len(out)/16; i++ {
		binary.LittleEndian.PutUint64(out[16*i:], uint64(i*13+1)%4096)
		binary.LittleEndian.PutUint64(out[16*i+8:], uint64(i*7)%1024)
	}
	return out
}

// denseEdits changes the low byte of every record's val field: a change
// every 16 bytes, what a read-modify-write scan leaves in a seqLine.
func denseEdits() []byte {
	var e []byte
	for off := 8; off < 2048; off += 16 {
		e = append(e, editAt(off, 0x5a)...)
	}
	return e
}

// runsAndLiterals lays equal-byte runs of the given lengths between literal
// stretches (no three equal bytes in a row) of the given lengths.
func runsAndLiterals(runs, lits []int) []byte {
	var out []byte
	for i := range max(len(runs), len(lits)) {
		if i < len(lits) {
			for k := range lits[i] {
				out = append(out, byte(k%2+2*i+1))
			}
		}
		if i < len(runs) {
			out = append(out, bytes.Repeat([]byte{0xc0 + byte(i)}, runs[i])...)
		}
	}
	return out
}

type kernelSeed struct {
	base, edits []byte
	gap, wider  uint16
}

func kernelSeeds() []kernelSeed {
	last := func(n int) []byte { return editAt(n-1, 1) }
	return []kernelSeed{
		{nil, nil, 8, 0},
		{randomBytes(4, 7), editAt(3, 0xff), 8, 24},
		{randomBytes(5, 4095), append(editAt(0, 1), editAt(4094, 2)...), 8, 120},
		{bytes.Repeat([]byte{0x5a}, 2048), editAt(1000, 0x0f), 8, 0},
		{seqLine(), editAt(0, 0x80), 32, 96},
		{seqLine(), last(2048), 1, 4095},
		{seqLine(), denseEdits(), 8, 24},
		{seqLine(), denseEdits(), 16, 0},
		{runsAndLiterals([]int{129, 130, 131, 132, 133, 260}, []int{1, 2, 5, 9, 3, 4, 1}), editAt(140, 7), 8, 8},
		{runsAndLiterals([]int{3, 4, 130}, []int{127, 128, 129, 256}), editAt(127, 1), 0, 8},
		{make([]byte, 2048), append(editAt(100, 1), editAt(117, 1)...), 8, 8}, // a gap of exactly the wider join gap
		{make([]byte, 4096), nil, 8, 0},
		{make([]byte, 4096), editAt(4095, 1), maxFuzzGap, 0},
	}
}

// FuzzCodecKernels: the word-wise DiffRanges, MergeRanges and run scan agree
// with the byte loops they replaced, and a delta patch rebuilds what it
// encodes, on a base, a copy of it with edits applied and two join gaps.
func FuzzCodecKernels(f *testing.F) {
	for _, s := range kernelSeeds() {
		f.Add(s.base, s.edits, s.gap, s.wider)
	}
	f.Fuzz(func(t *testing.T, base, edits []byte, gap, wider uint16) {
		checkKernels(t, base, edits, gap, wider)
	})
}

// TestCodecKernelsMatchReference runs checkKernels on seeded random lines:
// runs, literals and edits of every density, at every length from 0 to 4 KiB
// and join gaps either side of every run length.
func TestCodecKernelsMatchReference(t *testing.T) {
	r := rng(17)
	for trial := range 3000 {
		n := int(r.next() % 4097)
		base := make([]byte, 0, n)
		for len(base) < n {
			// Alternate short literal stretches and equal-byte runs around
			// the token bounds.
			k := int(r.next() % 140)
			if r.next()%2 == 0 {
				base = append(base, bytes.Repeat([]byte{byte(r.next() % 3)}, k)...)
			} else {
				base = append(base, randomBytes(r.next(), k%9)...)
			}
		}
		base = base[:n]
		var edits []byte
		stride := 1 + int(r.next()%64)
		for off := int(r.next() % 64); off < n && len(edits) < 3*512; off += stride + int(r.next()%4) {
			edits = append(edits, editAt(off, byte(r.next()|1))...)
		}
		t.Run(fmt.Sprint(trial), func(t *testing.T) {
			checkKernels(t, base, edits, uint16(r.next()), uint16(r.next()))
		})
	}
}

// TestByteRunLenAtTokenBounds: a repeat run or a literal stretch of every
// length to 300, after literal prefixes of 0 to 9 bytes so that each starts
// at every offset in a word, against the byte loop.
func TestByteRunLenAtTokenBounds(t *testing.T) {
	for pre := range 10 {
		for n := 1; n <= 300; n++ {
			for _, src := range [][]byte{
				runsAndLiterals([]int{n}, []int{pre, 3}),
				runsAndLiterals([]int{n}, []int{pre}),
				runsAndLiterals(nil, []int{pre + n}),
			} {
				if got, want := byteRunLen(src), refByteRunLen(src); got != want {
					t.Fatalf("prefix %d, length %d: byteRunLen(%x) = %d, byte loop %d", pre, n, src, got, want)
				}
			}
		}
	}
}

// benchShapes are the payload shapes BenchmarkCodecKernels times: base and
// the version a write-back diffs against it.
func benchShapes() []struct {
	name      string
	base, cur []byte
} {
	seq := seqLine()
	field := slices.Clone(seq)
	binary.LittleEndian.PutUint64(field[1000:], 0xdeadbeef)
	return []struct {
		name      string
		base, cur []byte
	}{
		{"seqscan", seq, applyEdits(seq, denseEdits())},
		{"onefield", seq, field},
		{"zeropage", make([]byte, 4096), make([]byte, 4096)},
		{"random", randomBytes(11, 2048), randomBytes(12, 2048)},
	}
}

// benchSink keeps the benchmarked calls' results alive.
var benchSink int

// BenchmarkCodecKernels times the write-back diff at the runtime's join gap
// and the wire-length run scan on each shape.
func BenchmarkCodecKernels(b *testing.B) {
	for _, sh := range benchShapes() {
		b.Run("DiffRanges/"+sh.name, func(b *testing.B) {
			b.SetBytes(int64(len(sh.cur)))
			for range b.N {
				benchSink += len(DiffRanges(sh.base, sh.cur, 8))
			}
		})
		b.Run("EncodedLen/"+sh.name, func(b *testing.B) {
			b.SetBytes(int64(len(sh.cur)))
			for range b.N {
				benchSink += EncodedLen(ByteRun, sh.cur)
			}
		})
	}
}
