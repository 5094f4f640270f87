package tensor

import "fmt"

// The four GEMM kernels share one register-blocked kernel, gemm. It keeps
// a 2×4 block of the output in independent accumulators, so each loaded
// element of a feeds four products and each element of b two, and the
// adds of different output elements overlap instead of queueing behind
// one another.
//
// Bit-identity contract (see the package doc): for finite inputs every
// output element is the sum of its products added from +0 in ascending k,
// as a naive triple loop computes it. The sum is not reordered, and each
// term is added as s += x*y, the loop's own expression, never math.FMA, so
// a target that fuses multiply-adds fuses both alike. Zero products are
// not skipped. Skipping them
// could not change a finite sum, since a sum that starts at +0 is never -0
// and x + ±0 = x for every other x; but 0·Inf is NaN, so on non-finite
// inputs the kernels differ from a loop that skips zeros.

// MatMul stores a·b into m and returns m. m must not alias a or b.
// It panics if the inner dimensions disagree. Element (i, j) is
// Σ_k a(i,k)·b(k,j), bit-identical to the naive loop for finite inputs.
func (m *Matrix) MatMul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	m.reshape(a.Rows, b.Cols)
	gemm(m.Data, a.Data, a.Cols, 1, b.Data, a.Rows, b.Cols, a.Cols, false)
	return m
}

// MatMulT stores a·bᵀ into m and returns m. m must not alias a or b.
// Element (i, j) is Σ_k a(i,k)·b(j,k), bit-identical to the naive loop for
// finite inputs.
func (m *Matrix) MatMulT(a, b *Matrix) *Matrix {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulT %dx%d · (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	m.reshape(a.Rows, b.Rows)
	gemm(m.Data, a.Data, a.Cols, 1, b.Transpose().Data, a.Rows, b.Rows, a.Cols, false)
	return m
}

// TMatMul stores aᵀ·b into m and returns m. m must not alias a or b.
// Element (i, j) is Σ_k a(k,i)·b(k,j), bit-identical to the naive loop for
// finite inputs. Use Gram for aᵀ·a.
func (m *Matrix) TMatMul(a, b *Matrix) *Matrix {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: TMatMul (%dx%d)ᵀ · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	m.reshape(a.Cols, b.Cols)
	gemm(m.Data, a.Data, 1, a.Cols, b.Data, a.Cols, b.Cols, a.Rows, false)
	return m
}

// Gram stores the symmetric aᵀ·a into m and returns m. m must not alias a.
// It computes the upper triangle and mirrors it. Multiplication commutes
// exactly, so the result is bit-identical to TMatMul(a, a), and to the
// naive loop, for finite inputs.
func (m *Matrix) Gram(a *Matrix) *Matrix {
	n := a.Cols
	m.reshape(n, n)
	gemm(m.Data, a.Data, 1, n, a.Data, n, n, a.Rows, true)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m.Data[j*n+i] = m.Data[i*n+j]
		}
	}
	return m
}

// gemm stores c[i*cols+j] = Σ_k a[i*ai+k*ak]·b[k*cols+j], summed from +0 in
// ascending k, for i < rows and j < cols. A is n deep and given by its row
// and k strides, so it may be read transposed; B is row-major with the
// output's width. With upper set only the elements with j ≥ i are
// guaranteed.
//
// Rows go in pairs and columns in blocks of 4, then 2, then 1. An odd last
// row is paired with itself: both halves of the pair compute and store the
// same sums.
func gemm(c, a []float64, ai, ak int, b []float64, rows, cols, n int, upper bool) {
	for i := 0; i < rows; i += 2 {
		pa, da, c0, c1 := i*ai, ai, c[i*cols:(i+1)*cols], c[i*cols:(i+1)*cols]
		if i+1 < rows {
			c1 = c[(i+1)*cols : (i+2)*cols]
		} else {
			da = 0
		}
		j := 0
		if upper {
			j = i
		}
		for ; j+4 <= cols; j += 4 {
			d0, d1 := c0[j:j+4:j+4], c1[j:j+4:j+4]
			d0[0], d0[1], d0[2], d0[3], d1[0], d1[1], d1[2], d1[3] = dot2x4(a, pa, da, ak, b, j, cols, n)
		}
		for ; j+2 <= cols; j += 2 {
			c0[j], c0[j+1], c1[j], c1[j+1] = dot2x2(a, pa, da, ak, b, j, cols, n)
		}
		if j < cols {
			c0[j], c1[j] = dot2x1(a, pa, da, ak, b, j, cols, n)
		}
	}
}

// dot2x4 returns the n-term sums Σ_k x_r(k)·y_t(k) of two rows x_r(k) =
// a[pa+r·da+k·ak] against four columns y_t(k) = b[pb+t+k·ldb], in row
// order. It is kept out of gemm (too large to inline) so that its eight
// accumulators get the registers to themselves; inlined, they spilled.
func dot2x4(a []float64, pa, da, ak int, b []float64, pb, ldb, n int) (s00, s01, s02, s03, s10, s11, s12, s13 float64) {
	for ; n > 0; n-- {
		x0, x1 := a[pa], a[pa+da]
		y := b[pb : pb+4 : pb+4]
		y0, y1, y2, y3 := y[0], y[1], y[2], y[3]
		s00 += x0 * y0
		s01 += x0 * y1
		s02 += x0 * y2
		s03 += x0 * y3
		s10 += x1 * y0
		s11 += x1 * y1
		s12 += x1 * y2
		s13 += x1 * y3
		pa += ak
		pb += ldb
	}
	return
}

// dot2x2 is dot2x4 for two columns.
func dot2x2(a []float64, pa, da, ak int, b []float64, pb, ldb, n int) (s00, s01, s10, s11 float64) {
	for ; n > 0; n-- {
		x0, x1 := a[pa], a[pa+da]
		y := b[pb : pb+2 : pb+2]
		y0, y1 := y[0], y[1]
		s00 += x0 * y0
		s01 += x0 * y1
		s10 += x1 * y0
		s11 += x1 * y1
		pa += ak
		pb += ldb
	}
	return
}

// dot2x1 is dot2x4 for one column.
func dot2x1(a []float64, pa, da, ak int, b []float64, pb, ldb, n int) (s0, s1 float64) {
	for ; n > 0; n-- {
		y := b[pb]
		s0 += a[pa] * y
		s1 += a[pa+da] * y
		pa += ak
		pb += ldb
	}
	return
}
