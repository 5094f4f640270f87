package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// gemmShape is one product: an r×c output with inner dimension k.
type gemmShape struct{ r, k, c int }

func (s gemmShape) String() string { return fmt.Sprintf("%dx%dx%d", s.r, s.k, s.c) }

// resnetShapes are the GEMM shapes of a ProxyResNet K-FAC step at batch 32
// (convolutions as im2col products) plus its 512-sample evaluation forward.
var resnetShapes = []gemmShape{
	{2048, 10, 6}, {1152, 55, 8}, {32, 289, 32}, {32, 33, 10}, // forward
	{10, 2048, 6}, {55, 1152, 8}, {289, 32, 32}, {33, 32, 10}, // weight gradients, factor A
	{6, 2048, 6}, {8, 1152, 8}, {10, 32, 10}, // factor G
	{2048, 6, 10}, {1152, 8, 55}, {32, 32, 289}, {32, 10, 33}, // input gradients
	{289, 289, 32}, {32, 32, 32}, // eigenbasis preconditioning (and 289x32x32 above)
	{32768, 10, 6}, {18432, 55, 8}, {512, 289, 32}, {512, 33, 10}, // evaluation forward
}

// gemmKernel pairs a kernel with its oracle; both store into m. operands
// builds the kernel's inputs for a shape from an r×k and a k×c matrix.
type gemmKernel struct {
	name     string
	new, ref func(m, a, b *Matrix) *Matrix
	operands func(x, y *Matrix) (a, b *Matrix)
}

var gemmKernels = []gemmKernel{
	{"MatMul", (*Matrix).MatMul, refMatMul,
		func(x, y *Matrix) (*Matrix, *Matrix) { return x, y }},
	{"MatMulT", (*Matrix).MatMulT, refMatMulT,
		func(x, y *Matrix) (*Matrix, *Matrix) { return x, y.Transpose() }},
	{"TMatMul", (*Matrix).TMatMul, refTMatMul,
		func(x, y *Matrix) (*Matrix, *Matrix) { return x.Transpose(), y }},
	// Gram of the k×r operand; b is unused.
	{"Gram",
		func(m, a, _ *Matrix) *Matrix { return m.Gram(a) },
		func(m, a, _ *Matrix) *Matrix { return refTMatMul(m, a, a) },
		func(x, y *Matrix) (*Matrix, *Matrix) { return x.Transpose(), nil }},
}

// sparseMatrix fills a rows×cols matrix with Gaussian values scaled by
// random powers of two; each element is nonzero with probability density.
func sparseMatrix(rng *rand.Rand, rows, cols int, density float64) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		if rng.Float64() < density {
			m.Data[i] = math.Ldexp(rng.NormFloat64(), rng.IntN(17)-8)
		}
	}
	return m
}

// stale returns an empty matrix whose backing array is NaN-filled, so a
// kernel that fails to write an output element is caught.
func stale(n int) *Matrix {
	d := make([]float64, n)
	for i := range d {
		d[i] = math.NaN()
	}
	return &Matrix{Data: d[:0]}
}

// checkGEMM compares every kernel with its oracle on operands x (r×k) and
// y (k×c), bit for bit, and also into a reused output with stale contents.
func checkGEMM(t *testing.T, label string, x, y *Matrix) {
	t.Helper()
	for _, kr := range gemmKernels {
		a, b := kr.operands(x, y)
		if kr.name == "Gram" && a.Cols > 289 {
			continue // the Gram of a tall r would be a huge r×r output
		}
		want := kr.ref(New(0, 0), a, b)
		got := kr.new(New(0, 0), a, b)
		if got.Rows != want.Rows || got.Cols != want.Cols || !bitsEqual(got.Data, want.Data) {
			t.Fatalf("%s %s: differs from the oracle\ngot  %v\nwant %v", kr.name, label, got, want)
		}
		if m := kr.new(stale(len(want.Data)+3), a, b); !bitsEqual(m.Data, want.Data) {
			t.Fatalf("%s %s: differs from the oracle into a reused output", kr.name, label)
		}
	}
}

// TestGEMMMatchesReference: MatMul, MatMulT, TMatMul and Gram are bit-identical
// to the triple-loop oracle on finite inputs, for every small shape and the
// ProxyResNet shapes, on dense, ReLU-like half-sparse and all-zero operands.
func TestGEMMMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 1))
	dims := []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 17}
	for _, density := range []float64{0, 0.5, 1} {
		for _, r := range dims {
			for _, k := range dims {
				for _, c := range dims {
					s := gemmShape{r, k, c}
					checkGEMM(t, fmt.Sprintf("%v density %g", s, density),
						sparseMatrix(rng, r, k, density), sparseMatrix(rng, k, c, density))
				}
			}
		}
		for _, s := range resnetShapes {
			checkGEMM(t, fmt.Sprintf("%v density %g", s, density),
				sparseMatrix(rng, s.r, s.k, density), sparseMatrix(rng, s.k, s.c, density))
		}
	}
}

// TestGEMMNonFinite: a NaN or ±Inf input element makes every output element
// it contributes to non-finite, even where it meets zeros of the other
// operand (the oracle skipped zero products there and returned finite
// values; bit-identity is promised for finite inputs only).
func TestGEMMNonFinite(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 2))
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, s := range []gemmShape{{1, 1, 1}, {5, 7, 9}, {17, 3, 8}, {32, 33, 10}} {
			for trial := 0; trial < 20; trial++ {
				x := sparseMatrix(rng, s.r, s.k, 0.5)
				y := sparseMatrix(rng, s.k, s.c, 0.5)
				inX := rng.IntN(2) == 0
				i, k, j := rng.IntN(s.r), rng.IntN(s.k), rng.IntN(s.c)
				if inX {
					x.Set(i, k, bad)
				} else {
					y.Set(k, j, bad)
				}
				for _, kr := range gemmKernels {
					a, b := kr.operands(x, y)
					out := kr.new(New(0, 0), a, b)
					// Output (p, q) of the r×c product (or of the
					// r×r Gram of x) depends on the bad element.
					hit := func(p, q int) bool {
						if kr.name == "Gram" {
							return inX && (p == i || q == i)
						}
						if inX {
							return p == i
						}
						return q == j
					}
					for p := 0; p < out.Rows; p++ {
						for q := 0; q < out.Cols; q++ {
							if v := out.At(p, q); hit(p, q) && !math.IsNaN(v) && !math.IsInf(v, 0) {
								t.Fatalf("%s %v: %g input gave finite output (%d,%d) = %g", kr.name, s, bad, p, q, v)
							}
						}
					}
				}
			}
		}
	}
}

// decodeGEMM turns fuzz bytes into an r×k and a k×c matrix, every dimension
// at most 9. Each element takes three bytes: an exponent byte (codes ≥ 200
// give an exact zero, the rest scales from 2⁻¹⁰²⁴ to 2¹⁰⁰⁸, so products
// underflow and overflow) and a signed 16-bit mantissa. Missing bytes read
// as zero.
func decodeGEMM(data []byte) (x, y *Matrix) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	r, k, c := int(next())%10, int(next())%10, int(next())%10
	fill := func(m *Matrix) *Matrix {
		for i := range m.Data {
			e := next()
			mant := int16(binary.LittleEndian.Uint16([]byte{next(), next()}))
			if e < 200 {
				m.Data[i] = math.Ldexp(float64(mant)/32768, int(e)%128*16-1024)
			}
		}
		return m
	}
	return fill(New(r, k)), fill(New(k, c))
}

// FuzzGEMM: on any finite operands every kernel is bit-identical to the
// oracle.
func FuzzGEMM(f *testing.F) {
	f.Add([]byte{2, 3, 2, 64, 1, 2, 200, 0, 0, 64, 255, 255, 70, 9, 9})
	f.Add([]byte{9, 9, 9, 1, 0, 128, 127, 255, 127})
	f.Add([]byte{5, 0, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		x, y := decodeGEMM(data)
		checkGEMM(t, fmt.Sprintf("%dx%dx%d", x.Rows, x.Cols, y.Cols), x, y)
	})
}

// gemmSink keeps BenchmarkGEMM's results live.
var gemmSink *Matrix

// BenchmarkGEMM times every kernel against its oracle at the ProxyResNet
// shapes on ReLU-like half-sparse operands. Products are labelled r×k×c
// (an r×c output of depth k), Gram by its k×r operand:
//
//	go test -run xxx -bench GEMM ./internal/tensor
func BenchmarkGEMM(b *testing.B) {
	rng := rand.New(rand.NewPCG(13, 3))
	for _, kr := range gemmKernels {
		seen := map[string]bool{}
		for _, s := range resnetShapes {
			label := s.String()
			if kr.name == "Gram" {
				label = fmt.Sprintf("%dx%d", s.k, s.r)
			}
			if seen[label] || (kr.name == "Gram" && s.r > 289) {
				continue
			}
			seen[label] = true
			x, y := kr.operands(sparseMatrix(rng, s.r, s.k, 0.5), sparseMatrix(rng, s.k, s.c, 0.5))
			for _, impl := range []struct {
				name string
				run  func(m, a, b *Matrix) *Matrix
			}{{"new", kr.new}, {"ref", kr.ref}} {
				b.Run(fmt.Sprintf("%s/%s/%s", kr.name, impl.name, label), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						gemmSink = impl.run(New(0, 0), x, y)
					}
				})
			}
		}
	}
}
