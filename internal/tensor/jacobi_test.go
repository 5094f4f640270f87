package tensor

import (
	"fmt"
	"math"
)

// This file keeps the cyclic Jacobi eigensolver as a test oracle for
// EigenSym. It is slow (several full sweeps of strided column rotations)
// but simple enough to trust: every rotation exactly zeroes one
// off-diagonal pair, and it stops only when the off-diagonal mass is gone.

// maxJacobiSweeps bounds the cyclic Jacobi iteration; convergence is
// quadratic so well-conditioned K-FAC factors finish in well under ten
// sweeps.
const maxJacobiSweeps = 64

// jacobiEigenSym computes the eigendecomposition of the symmetric matrix a
// using the cyclic Jacobi rotation method. The input is not modified.
func jacobiEigenSym(a *Matrix) (*Eigen, error) {
	if !a.IsSquare() {
		return nil, fmt.Errorf("tensor: jacobiEigenSym on %dx%d matrix", a.Rows, a.Cols)
	}
	n := a.Rows
	w := a.Clone()
	q := Identity(n)
	if n <= 1 {
		vals := make([]float64, n)
		if n == 1 {
			vals[0] = w.Data[0]
		}
		return &Eigen{Values: vals, Q: q}, nil
	}

	for sweep := 0; sweep < maxJacobiSweeps; sweep++ {
		off := offDiagNorm(w)
		if off <= 1e-14*(1+w.FrobeniusNorm()) {
			return finishEigen(w, q), nil
		}
		for p := 0; p < n-1; p++ {
			for qi := p + 1; qi < n; qi++ {
				apq := w.Data[p*n+qi]
				if math.Abs(apq) < 1e-300 {
					continue
				}
				app := w.Data[p*n+p]
				aqq := w.Data[qi*n+qi]
				// Stable computation of the rotation angle.
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+theta*theta))
				} else {
					t = -1 / (-theta + math.Sqrt(1+theta*theta))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c
				applyJacobiRotation(w, q, p, qi, c, s)
			}
		}
	}
	if off := offDiagNorm(w); off <= 1e-8*(1+w.FrobeniusNorm()) {
		// Good enough for preconditioning even if the strict tolerance
		// was missed (ill-scaled factors).
		return finishEigen(w, q), nil
	}
	return nil, fmt.Errorf("tensor: jacobiEigenSym failed to converge for %dx%d matrix", n, n)
}

// applyJacobiRotation applies the Givens rotation G(p,q,θ) on both sides of
// the working matrix w and accumulates it into the eigenvector matrix q.
func applyJacobiRotation(w, q *Matrix, p, r int, c, s float64) {
	n := w.Rows
	for k := 0; k < n; k++ {
		wkp := w.Data[k*n+p]
		wkr := w.Data[k*n+r]
		w.Data[k*n+p] = c*wkp - s*wkr
		w.Data[k*n+r] = s*wkp + c*wkr
	}
	for k := 0; k < n; k++ {
		wpk := w.Data[p*n+k]
		wrk := w.Data[r*n+k]
		w.Data[p*n+k] = c*wpk - s*wrk
		w.Data[r*n+k] = s*wpk + c*wrk
	}
	for k := 0; k < n; k++ {
		qkp := q.Data[k*n+p]
		qkr := q.Data[k*n+r]
		q.Data[k*n+p] = c*qkp - s*qkr
		q.Data[k*n+r] = s*qkp + c*qkr
	}
}

func offDiagNorm(w *Matrix) float64 {
	n := w.Rows
	var s float64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := w.Data[i*n+j]
			s += 2 * v * v
		}
	}
	return math.Sqrt(s)
}

// finishEigen extracts the diagonal, sorts eigenpairs ascending, and
// packages the result.
func finishEigen(w, q *Matrix) *Eigen {
	n := w.Rows
	vals := make([]float64, n)
	for i := 0; i < n; i++ {
		vals[i] = w.Data[i*n+i]
	}
	// Selection sort of eigenpairs (n is small); swapping columns of q.
	for i := 0; i < n-1; i++ {
		minIdx := i
		for j := i + 1; j < n; j++ {
			if vals[j] < vals[minIdx] {
				minIdx = j
			}
		}
		if minIdx != i {
			vals[i], vals[minIdx] = vals[minIdx], vals[i]
			for k := 0; k < n; k++ {
				q.Data[k*n+i], q.Data[k*n+minIdx] = q.Data[k*n+minIdx], q.Data[k*n+i]
			}
		}
	}
	return &Eigen{Values: vals, Q: q}
}
