package exec

import (
	"encoding/binary"
	"unsafe"
)

// The two matrix-multiply kernels. Both are blocked for registers only: every
// output element still sees exactly the multiplies and adds of the textbook
// loops (refExecutor.intrinsic, gpt2's reference), in the same order, so a
// result is the same bits whatever the block size — NaN, ±Inf, −0 and
// subnormals included. Blocking changes how often an operand is loaded, never
// what is computed from it. 1×4 is what measured fastest (DESIGN.md §22).

// matMul accumulates a·b into c: a is m×k, b is k×n, c is m×n, all row-major.
// A zero in a contributes nothing (the textbook loop skips it, which is what
// keeps 0·Inf from turning a row into NaN), so a group of four k-rows runs
// fused only when none of its four a values is zero; any other group, and the
// k%4 tail, goes a row at a time with the skip.
func matMul(c, a, b []float64, m, k, n int) {
	for i := 0; i < m; i++ {
		ar := a[i*k : (i+1)*k]
		out := c[i*n : (i+1)*n]
		kk := 0
		for ; kk+4 <= k; kk += 4 {
			a0, a1, a2, a3 := ar[kk], ar[kk+1], ar[kk+2], ar[kk+3]
			if a0 == 0 || a1 == 0 || a2 == 0 || a3 == 0 {
				axpyRows(out, ar[kk:kk+4], b[kk*n:], n)
				continue
			}
			// Re-slicing to len(out) lets the compiler drop the bounds
			// checks in the loop.
			b0 := b[kk*n:][:len(out)]
			b1 := b[(kk+1)*n:][:len(out)]
			b2 := b[(kk+2)*n:][:len(out)]
			b3 := b[(kk+3)*n:][:len(out)]
			for j := range out {
				out[j] = out[j] + a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
			}
		}
		axpyRows(out, ar[kk:], b[kk*n:], n)
	}
}

// axpyRows is the row-at-a-time form: out += av[r]·(row r of b) for each r in
// order, skipping zero av[r]. b's rows are n long.
func axpyRows(out, av, b []float64, n int) {
	for r, v := range av {
		if v == 0 {
			continue
		}
		row := b[r*n:][:len(out)]
		for j := range out {
			out[j] += v * row[j]
		}
	}
}

// matMulT accumulates a·bᵀ into c: a is m×k, b is n×k, c is m×n, all
// row-major. Each output element is its own dot product summed from zero and
// then added to c, as in the textbook loop; four of them share one pass over
// the a row, each in its own accumulator.
func matMulT(c, a, b []float64, m, k, n int) {
	for i := 0; i < m; i++ {
		ar := a[i*k : (i+1)*k]
		out := c[i*n : (i+1)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := b[j*k:][:len(ar)]
			b1 := b[(j+1)*k:][:len(ar)]
			b2 := b[(j+2)*k:][:len(ar)]
			b3 := b[(j+3)*k:][:len(ar)]
			var s0, s1, s2, s3 float64
			for kk, av := range ar {
				s0 += av * b0[kk]
				s1 += av * b1[kk]
				s2 += av * b2[kk]
				s3 += av * b3[kk]
			}
			out[j] += s0
			out[j+1] += s1
			out[j+2] += s2
			out[j+3] += s3
		}
		for ; j < n; j++ {
			br := b[j*k:][:len(ar)]
			var s float64
			for kk, av := range ar {
				s += av * br[kk]
			}
			out[j] += s
		}
	}
}

// hostBigEndian reports whether this host stores a float64's bytes in the
// opposite order to far memory, which is little-endian IEEE-754.
var hostBigEndian = binary.NativeEndian.Uint16([]byte{0, 1}) == 1

// floatBytes returns vals' own storage as bytes — the one place the float
// scratch is viewed unsafely, so that a tensor operand crosses the bulk seam
// without a copy. The bytes are in host order; farOrder converts.
func floatBytes(vals []float64) []byte {
	if len(vals) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&vals[0])), len(vals)*8)
}

// farOrder converts buf, whole 8-byte words, between host order and far
// memory's, in place; it is its own inverse and does nothing on a
// little-endian host.
func farOrder(buf []byte) {
	if hostBigEndian {
		swapWords(buf)
	}
}

// swapWords reverses each 8-byte word of buf.
func swapWords(buf []byte) {
	for ; len(buf) >= 8; buf = buf[8:] {
		buf[0], buf[1], buf[2], buf[3], buf[4], buf[5], buf[6], buf[7] =
			buf[7], buf[6], buf[5], buf[4], buf[3], buf[2], buf[1], buf[0]
	}
}
