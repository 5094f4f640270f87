package tensor

import "fmt"

// This file keeps the original triple-loop GEMM kernels as the test oracle
// for MatMul, MatMulT, TMatMul and Gram. They are slow (TMatMul streams the
// whole output through cache once per row of a, and MatMul and TMatMul
// branch on every zero of a) but simple enough to trust: every output
// element is the sum of its products added from +0 in ascending k.

// refMatMul stores a·b into m and returns m.
func refMatMul(m, a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	m.reshape(a.Rows, b.Cols)
	for i := range m.Data {
		m.Data[i] = 0
	}
	// i-k-j loop order keeps both b and m accesses sequential.
	for i := 0; i < a.Rows; i++ {
		mrow := m.Data[i*m.Cols : (i+1)*m.Cols]
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bv := range brow {
				mrow[j] += av * bv
			}
		}
	}
	return m
}

// refMatMulT stores a·bᵀ into m and returns m.
func refMatMulT(m, a, b *Matrix) *Matrix {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulT %dx%d · (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	m.reshape(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		mrow := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j := 0; j < b.Rows; j++ {
			brow := b.Data[j*b.Cols : (j+1)*b.Cols]
			var sum float64
			for k, av := range arow {
				sum += av * brow[k]
			}
			mrow[j] = sum
		}
	}
	return m
}

// refTMatMul stores aᵀ·b into m and returns m. refTMatMul(m, a, a) is the
// oracle for Gram: it is what the Kronecker factors were built with before
// Gram existed.
func refTMatMul(m, a, b *Matrix) *Matrix {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: TMatMul (%dx%d)ᵀ · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	m.reshape(a.Cols, b.Cols)
	for i := range m.Data {
		m.Data[i] = 0
	}
	for k := 0; k < a.Rows; k++ {
		arow := a.Data[k*a.Cols : (k+1)*a.Cols]
		brow := b.Data[k*b.Cols : (k+1)*b.Cols]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			mrow := m.Data[i*m.Cols : (i+1)*m.Cols]
			for j, bv := range brow {
				mrow[j] += av * bv
			}
		}
	}
	return m
}
