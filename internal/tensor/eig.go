package tensor

import (
	"errors"
	"fmt"
	"math"
)

// ErrNoConvergence is wrapped by the error EigenSym returns for input it
// cannot decompose: a NaN or Inf entry, overflow, or a QL iteration that
// does not converge.
var ErrNoConvergence = errors.New("tensor: EigenSym failed to converge")

// Eigen holds the eigendecomposition of a real symmetric matrix:
// A = Q · diag(Values) · Qᵀ with orthonormal columns in Q.
type Eigen struct {
	// Values are the eigenvalues in ascending order.
	Values []float64
	// Q holds the corresponding eigenvectors as columns. Each column's sign
	// is fixed so that its largest-magnitude component is positive (the
	// lowest row index wins a tie), so Q is a deterministic function of the
	// input.
	Q *Matrix
}

// maxQLIterations bounds the implicit QL iterations spent on any one
// eigenvalue (the EISPACK limit); a tridiagonal matrix from a finite
// symmetric input typically needs two or three.
const maxQLIterations = 30

// EigenSym computes the eigendecomposition of the symmetric matrix a by
// Householder reduction to tridiagonal form followed by the implicit-shift
// QL algorithm with eigenvector accumulation (the EISPACK tred2/tql2 pair,
// after the JAMA port). The input is not modified. It returns an error if a
// is not square, holds a NaN or Inf, or the QL iteration fails to converge.
func EigenSym(a *Matrix) (*Eigen, error) {
	if !a.IsSquare() {
		return nil, fmt.Errorf("tensor: EigenSym on %dx%d matrix", a.Rows, a.Cols)
	}
	n := a.Rows
	if !allFinite(a.Data) {
		return nil, errNoConvergence(n)
	}
	if n == 0 {
		return &Eigen{Values: []float64{}, Q: New(0, 0)}, nil
	}
	// The working matrix w holds the transpose of the accumulated
	// transform, so the eigenvectors build up as its rows: every O(n³) loop
	// below, and every QL rotation, then runs over contiguous rows. As a is
	// symmetric, its transpose is a itself.
	w := a.Clone()
	d := make([]float64, n)
	e := make([]float64, n)
	tred2(w.Data, n, d, e)
	if err := tql2(w.Data, n, d, e); err != nil {
		return nil, err
	}
	if !allFinite(d) || !allFinite(w.Data) {
		// Overflow in the QL sweeps on extreme but finite input.
		return nil, errNoConvergence(n)
	}
	sortEigenRows(w.Data, n, d)
	fixSigns(w.Data, n)
	return &Eigen{Values: d, Q: w.Transpose()}, nil
}

func errNoConvergence(n int) error {
	return fmt.Errorf("%w for %dx%d matrix", ErrNoConvergence, n, n)
}

func allFinite(xs []float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// tred2 reduces the symmetric n×n matrix in w (row-major) to tridiagonal
// form T = Zᵀ·A·Z by Householder similarity transforms. On return d holds
// the diagonal of T, e[1:] its subdiagonal (e[0] = 0), and w holds Zᵀ. It
// is JAMA's tred2 with every matrix index transposed (JAMA's V[i][j] is
// w[j*n+i]), which turns the column walks of the original into row walks.
func tred2(w []float64, n int, d, e []float64) {
	for j := 0; j < n; j++ {
		d[j] = w[j*n+n-1]
	}
	for i := n - 1; i > 0; i-- {
		// Scale the row to avoid under- and overflow.
		var scale, h float64
		for k := 0; k < i; k++ {
			scale += math.Abs(d[k])
		}
		if scale == 0 {
			e[i] = d[i-1]
			for j := 0; j < i; j++ {
				d[j] = w[j*n+i-1]
				w[j*n+i] = 0
				w[i*n+j] = 0
			}
			d[i] = h
			continue
		}
		// Generate the Householder vector.
		for k := 0; k < i; k++ {
			d[k] /= scale
			h += d[k] * d[k]
		}
		f := d[i-1]
		g := math.Sqrt(h)
		if f > 0 {
			g = -g
		}
		e[i] = scale * g
		h -= f * g
		d[i-1] = f - g
		for j := 0; j < i; j++ {
			e[j] = 0
		}
		// Apply the similarity transform to the remaining rows. Here and
		// below, reslicing to len(row) lets the compiler drop the bounds
		// checks from the inner loops.
		for j := 0; j < i; j++ {
			f = d[j]
			w[i*n+j] = f
			row := w[j*n+j+1 : j*n+i]
			dk, ek := d[j+1:i], e[j+1:i]
			dk, ek = dk[:len(row)], ek[:len(row)]
			g = e[j] + w[j*n+j]*f
			for k, v := range row {
				g += v * dk[k]
				ek[k] += v * f
			}
			e[j] = g
		}
		f = 0
		for j := 0; j < i; j++ {
			e[j] /= h
			f += e[j] * d[j]
		}
		hh := f / (h + h)
		for j := 0; j < i; j++ {
			e[j] -= hh * d[j]
		}
		for j := 0; j < i; j++ {
			f, g = d[j], e[j]
			row := w[j*n+j : j*n+i]
			dk, ek := d[j:i], e[j:i]
			dk, ek = dk[:len(row)], ek[:len(row)]
			for k := range row {
				row[k] -= f*ek[k] + g*dk[k]
			}
			d[j] = w[j*n+i-1]
			w[j*n+i] = 0
		}
		d[i] = h
	}

	// Accumulate the transforms.
	for i := 0; i < n-1; i++ {
		w[i*n+n-1] = w[i*n+i]
		w[i*n+i] = 1
		next := w[(i+1)*n : (i+1)*n+i+1]
		if h := d[i+1]; h != 0 {
			for k := range next {
				d[k] = next[k] / h
			}
			for j := 0; j <= i; j++ {
				row := w[j*n : j*n+i+1]
				nx, dk := next[:len(row)], d[:len(row)]
				var g float64
				for k, v := range row {
					g += v * nx[k]
				}
				for k := range row {
					row[k] -= g * dk[k]
				}
			}
		}
		for k := range next {
			next[k] = 0
		}
	}
	for j := 0; j < n; j++ {
		d[j] = w[j*n+n-1]
		w[j*n+n-1] = 0
	}
	w[n*n-1] = 1
	e[0] = 0
}

// tql2 diagonalises the symmetric tridiagonal matrix (d, e) from tred2 by
// the implicit-shift QL algorithm, applying every Givens rotation to the
// pair of rows of w it mixes. On return d holds the eigenvalues (unsorted)
// and row i of w the eigenvector of d[i].
func tql2(w []float64, n int, d, e []float64) error {
	const eps = 0x1p-52
	if !allFinite(d) || !allFinite(e) {
		// Overflow in tred2. A NaN would also disable every convergence
		// test below and leave the NaN-free entries untouched.
		return errNoConvergence(n)
	}
	copy(e, e[1:])
	e[n-1] = 0
	var f, tst1 float64
	for l := 0; l < n; l++ {
		// Find a small subdiagonal element. e[n-1] is zero, so the scan
		// stops at the last index at the latest.
		tst1 = math.Max(tst1, math.Abs(d[l])+math.Abs(e[l]))
		m := l
		for m < n-1 && math.Abs(e[m]) > eps*tst1 {
			m++
		}
		// If m == l, d[l] is already an eigenvalue; otherwise iterate.
		for iter := 0; m > l; iter++ {
			if iter == maxQLIterations {
				return errNoConvergence(n)
			}
			// Compute the implicit shift.
			g := d[l]
			p := (d[l+1] - g) / (2 * e[l])
			r := math.Hypot(p, 1)
			if p < 0 {
				r = -r
			}
			d[l] = e[l] / (p + r)
			d[l+1] = e[l] * (p + r)
			dl1 := d[l+1]
			h := g - d[l]
			for i := l + 2; i < n; i++ {
				d[i] -= h
			}
			f += h

			// Implicit QL transformation.
			p = d[m]
			c, c2, c3 := 1.0, 1.0, 1.0
			el1 := e[l+1]
			var s, s2 float64
			for i := m - 1; i >= l; i-- {
				c3, c2, s2 = c2, c, s
				g = c * e[i]
				h = c * p
				c, s, r = givens(p, e[i])
				e[i+1] = s2 * r
				p = c*d[i] - s*g
				d[i+1] = h + s*(c*g+s*d[i])
				lo := w[i*n : i*n+n]
				hi := w[(i+1)*n : (i+1)*n+n]
				hi = hi[:len(lo)]
				for k, v := range lo {
					u := hi[k]
					hi[k] = s*v + c*u
					lo[k] = c*v - s*u
				}
			}
			p = -s * s2 * c3 * el1 * e[l] / dl1
			e[l] = s * p
			d[l] = c * p
			// A NaN here stops the loop; EigenSym's final check rejects it.
			if !(math.Abs(e[l]) > eps*tst1) {
				break
			}
		}
		d[l] += f
		e[l] = 0
	}
	return nil
}

// givens returns the rotation taking (p, q) to (r, 0): r = hypot(p, q),
// c = p/r, s = q/r. It forms c and s from the ratio of the smaller to the
// larger magnitude rather than dividing by r, so c² + s² = 1 to rounding
// even when r is subnormal (where r itself carries a large relative
// error); for p = q = 0 it returns the identity.
func givens(p, q float64) (c, s, r float64) {
	ap, aq := math.Abs(p), math.Abs(q)
	switch {
	case aq == 0:
		return math.Copysign(1, p), 0, ap
	case ap >= aq:
		t := q / p
		u := math.Sqrt(1 + t*t)
		c = math.Copysign(1/u, p)
		return c, c * t, ap * u
	default:
		t := p / q
		u := math.Sqrt(1 + t*t)
		s = math.Copysign(1/u, q)
		return s * t, s, aq * u
	}
}

// sortEigenRows sorts the eigenvalues in d ascending, permuting the rows of
// w (the eigenvectors) alongside.
func sortEigenRows(w []float64, n int, d []float64) {
	for i := 0; i < n-1; i++ {
		k := i
		for j := i + 1; j < n; j++ {
			if d[j] < d[k] {
				k = j
			}
		}
		if k != i {
			d[i], d[k] = d[k], d[i]
			ri, rk := w[i*n:(i+1)*n], w[k*n:(k+1)*n]
			for j := range ri {
				ri[j], rk[j] = rk[j], ri[j]
			}
		}
	}
}

// fixSigns negates every row of w whose largest-magnitude component (the
// first one on a tie) is negative.
func fixSigns(w []float64, n int) {
	for i := 0; i < n; i++ {
		row := w[i*n : (i+1)*n]
		big := 0
		for j, v := range row {
			if math.Abs(v) > math.Abs(row[big]) {
				big = j
			}
		}
		if row[big] < 0 {
			for j := range row {
				row[j] = -row[j]
			}
		}
	}
}

// Reconstruct rebuilds Q · diag(Values) · Qᵀ, mainly for testing.
func (e *Eigen) Reconstruct() *Matrix {
	n := len(e.Values)
	qd := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			qd.Data[i*n+j] = e.Q.Data[i*n+j] * e.Values[j]
		}
	}
	return New(n, n).MatMulT(qd, e.Q)
}
