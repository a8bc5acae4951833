package exec

import (
	"fmt"
	"math"
	"testing"
)

// naiveMatMul and naiveMatMulT are the textbook loops the kernels must agree
// with bit for bit — the form refExecutor.intrinsic carries inline — kept
// callable so the fuzz target and the benchmarks can drive them on bare
// slices.
func naiveMatMul(c, a, b []float64, m, k, n int) {
	for i := 0; i < m; i++ {
		for kk := 0; kk < k; kk++ {
			av := a[i*k+kk]
			if av == 0 {
				continue
			}
			row := b[kk*n : (kk+1)*n]
			out := c[i*n : (i+1)*n]
			for j := range row {
				out[j] += av * row[j]
			}
		}
	}
}

func naiveMatMulT(c, a, b []float64, m, k, n int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var acc float64
			ar := a[i*k : (i+1)*k]
			br := b[j*k : (j+1)*k]
			for kk := range ar {
				acc += ar[kk] * br[kk]
			}
			c[i*n+j] += acc
		}
	}
}

// fuzzSpecials are the values rounding order, the zero skip and a careless
// re-association would each get wrong: both zeros, both NaN signs, both
// infinities, subnormals at either end of their range, magnitudes whose
// products overflow or underflow, and fractions that do not add exactly.
var fuzzSpecials = [16]float64{
	0, math.Copysign(0, -1),
	math.NaN(), math.Float64frombits(0xFFF8000000000000),
	math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000FFFFFFFFFFFFF), 1e-308,
	1e308, -1e308,
	1, -1, 0.1, 1.0 / 3,
}

// fuzzValue maps one corpus byte to a matrix element: bytes below 32 pick a
// special (twice over, so a mutated byte lands on one often), the rest are
// sevenths, which round at nearly every add.
func fuzzValue(b byte) float64 {
	if b < 32 {
		return fuzzSpecials[b%16]
	}
	return float64(int(b)-144) / 7
}

// fuzzMatrices lays a, b and c out of data, one byte per element, wrapping.
// a comes first, so data[i] is a[i] while i < len(data): a seed places a zero
// at a chosen spot of a four-group by position.
func fuzzMatrices(data []byte, la, lb, lc int) (a, b, c []float64) {
	all := make([]float64, la+lb+lc)
	for i := range all {
		all[i] = fuzzValue(data[i%len(data)])
	}
	return all[:la], all[la : la+lb], all[la+lb:]
}

// sameFloat is bit equality, except that any NaN equals any NaN: when both
// operands of an add or multiply are NaN, which one's sign and payload
// survives is not defined by Go — on amd64 it is whichever the register
// allocator made the destination, so even one source line compiled in two
// places can differ (0·Inf makes 0xfff8…0, math.NaN() is 0x7ff8…1). That a
// NaN comes out, and where, is the contract; the zero's sign, the infinity's
// sign and every rounding are compared exactly.
func sameFloat(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || (x != x && y != y)
}

// FuzzTensorKernels drives both kernels against the textbook loops on the
// same operands and accumulating destination and compares every output's
// bits (sameFloat). Dimensions run 0..65, across the four-wide block and its
// tails.
func FuzzTensorKernels(f *testing.F) {
	f.Add(uint8(4), uint8(8), uint8(4), []byte{200, 0, 201, 202, 1, 203, 204, 205})
	f.Fuzz(func(t *testing.T, dm, dk, dn uint8, data []byte) {
		if len(data) == 0 {
			t.Skip()
		}
		m, k, n := int(dm)%66, int(dk)%66, int(dn)%66
		for _, kn := range []struct {
			name          string
			kernel, naive func(c, a, b []float64, m, k, n int)
		}{
			{"matMul", matMul, naiveMatMul},    // b is k×n
			{"matMulT", matMulT, naiveMatMulT}, // b is n×k
		} {
			a, b, want := fuzzMatrices(data, m*k, k*n, m*n)
			got := append([]float64(nil), want...)
			kn.naive(want, a, b, m, k, n)
			kn.kernel(got, a, b, m, k, n)
			for i := range want {
				if !sameFloat(got[i], want[i]) {
					t.Fatalf("%s %dx%dx%d: c[%d][%d] = %v (%#x), textbook loop has %v (%#x)",
						kn.name, m, k, n, i/n, i%n, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
				}
			}
		}
	})
}

func TestSwapWords(t *testing.T) {
	buf := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	swapWords(buf)
	want := []byte{8, 7, 6, 5, 4, 3, 2, 1, 16, 15, 14, 13, 12, 11, 10, 9}
	if string(buf) != string(want) {
		t.Fatalf("swapWords = %v, want %v", buf, want)
	}
}

// benchKernel times kernel and the textbook loop on m×k·k×n products of
// non-zero operands (GPT-2's activations and weights have no exact zeros), so
// `go test -run '^$' -bench Kernel ./internal/exec/` prints both sides of the
// ratio. The shapes are the benchmark's GPT-2 cell's (SeqLen 32, DModel 64,
// DFF 256).
func benchKernel(b *testing.B, shapes [][3]int, kernel, naive func(c, a, b []float64, m, k, n int)) {
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		all := make([]float64, m*k+k*n+m*n)
		for i := range all {
			all[i] = float64(i%251-125) / 64
			if all[i] == 0 {
				all[i] = 0.5
			}
		}
		x, y, c := all[:m*k], all[m*k:m*k+k*n], all[m*k+k*n:]
		for _, impl := range []struct {
			name string
			run  func(c, a, b []float64, m, k, n int)
		}{{"kernel", kernel}, {"naive", naive}} {
			b.Run(fmt.Sprintf("m%d_k%d_n%d/%s", m, k, n, impl.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					clear(c)
					impl.run(c, x, y, m, k, n)
				}
			})
		}
	}
}

// Attention projections (32×64·64×64) and the two MLP products.
func BenchmarkKernelMatMul(b *testing.B) {
	benchKernel(b, [][3]int{{32, 64, 64}, {32, 64, 256}, {32, 256, 64}}, matMul, naiveMatMul)
}

// Q·Kᵀ: 32×64·(32×64)ᵀ.
func BenchmarkKernelMatMulT(b *testing.B) {
	benchKernel(b, [][3]int{{32, 64, 32}}, matMulT, naiveMatMulT)
}
