package tensor

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// eigenSizes spans the trivial sizes, odd sizes that exercise every
// branch of the reduction, and the Kronecker factor sizes of the proxy
// models (ProxyResNet's largest factor is 289×289).
var eigenSizes = []int{1, 2, 3, 7, 17, 55, 64, 128, 289}

// eigenSpectra builds one symmetric n×n matrix per spectrum shape the
// K-FAC factors (and their damped forms) present to EigenSym.
var eigenSpectra = []struct {
	name string
	make func(rng *rand.Rand, n int) *Matrix
}{
	{"spd", func(rng *rand.Rand, n int) *Matrix {
		b := randomMatrix(rng, n, n)
		return New(0, 0).TMatMul(b, b).AddDiag(1)
	}},
	{"rank-deficient", func(rng *rand.Rand, n int) *Matrix {
		// X·Xᵀ with X n×n/4, like a factor averaged over few samples.
		x := randomMatrix(rng, n, max(1, n/4))
		return New(0, 0).MatMulT(x, x)
	}},
	{"identity", func(_ *rand.Rand, n int) *Matrix { return Identity(n) }},
	{"repeated", func(rng *rand.Rand, n int) *Matrix {
		// Three blocks of equal eigenvalues in a random basis.
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = []float64{0.5, 2, 7}[3*i/n]
		}
		return rotated(rng, vals)
	}},
	{"diagonal", func(rng *rand.Rand, n int) *Matrix {
		m := New(n, n)
		for i := 0; i < n; i++ {
			m.Data[i*n+i] = rng.NormFloat64()
		}
		return m
	}},
	{"zero", func(_ *rand.Rand, n int) *Matrix { return New(n, n) }},
	{"graded", func(rng *rand.Rand, n int) *Matrix {
		// Eigenvalues log-spaced from 1e-12 to 1e6 in a random basis.
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = 1e-12
			if n > 1 {
				vals[i] = math.Pow(10, -12+18*float64(i)/float64(n-1))
			}
		}
		rng.Shuffle(n, func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
		return rotated(rng, vals)
	}},
}

// rotated returns H·diag(vals)·Hᵀ for a random orthogonal H built from two
// Householder reflections, symmetrised against rounding.
func rotated(rng *rand.Rand, vals []float64) *Matrix {
	n := len(vals)
	m := New(n, n)
	for i, v := range vals {
		m.Data[i*n+i] = v
	}
	for r := 0; r < 2; r++ {
		v := make([]float64, n)
		var vv float64
		for i := range v {
			v[i] = rng.NormFloat64()
			vv += v[i] * v[i]
		}
		h := Identity(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				h.Data[i*n+j] -= 2 * v[i] * v[j] / vv
			}
		}
		m = New(0, 0).MatMulT(New(0, 0).MatMul(h, m), h)
	}
	return m.Symmetrize()
}

type eigenCase struct {
	name string
	a    *Matrix
}

// eigenCases returns every spectrum at every size, seeded.
func eigenCases() []eigenCase {
	rng := rand.New(rand.NewPCG(21, 22))
	var cs []eigenCase
	for _, n := range eigenSizes {
		for _, s := range eigenSpectra {
			cs = append(cs, eigenCase{fmt.Sprintf("%s/n=%d", s.name, n), s.make(rng, n)})
		}
	}
	return cs
}

// Backward-error bounds, as c·n·ε with ε the float64 unit roundoff: the
// residual max|AQ − QΛ| is bounded by eigenResidualC·n·ε·‖A‖_F and the
// loss of orthogonality max|QᵀQ − I| by eigenOrthoC·n·ε.
const (
	eigenResidualC = 16
	eigenOrthoC    = 16
)

// eigenResidual returns max|AQ − QΛ|.
func eigenResidual(a *Matrix, e *Eigen) float64 {
	n := a.Rows
	aq := New(0, 0).MatMul(a, e.Q)
	var worst float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			worst = math.Max(worst, math.Abs(aq.Data[i*n+j]-e.Q.Data[i*n+j]*e.Values[j]))
		}
	}
	return worst
}

// orthoError returns max|QᵀQ − I|.
func orthoError(q *Matrix) float64 {
	qtq := New(0, 0).TMatMul(q, q)
	return New(0, 0).Sub(qtq, Identity(q.Rows)).MaxAbs()
}

func residualBound(a *Matrix) float64 {
	return eigenResidualC * float64(a.Rows) * 0x1p-53 * a.FrobeniusNorm()
}

func orthoBound(n int) float64 { return eigenOrthoC * float64(n) * 0x1p-53 }

// TestEigenSymMatchesJacobi cross-checks the eigenvalues of every table
// case against the cyclic Jacobi oracle, relative to ‖A‖_F (both solvers
// are backward stable, so that is the accuracy either can promise).
func TestEigenSymMatchesJacobi(t *testing.T) {
	const relTol = 1e-12
	for _, c := range eigenCases() {
		got, err := EigenSym(c.a)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want, err := jacobiEigenSym(c.a)
		if err != nil {
			t.Fatalf("%s: oracle: %v", c.name, err)
		}
		tol := relTol * c.a.FrobeniusNorm()
		for i := range want.Values {
			if d := math.Abs(got.Values[i] - want.Values[i]); d > tol {
				t.Fatalf("%s: λ[%d] = %g, oracle %g (|Δ| %g > %g)", c.name, i, got.Values[i], want.Values[i], d, tol)
			}
		}
	}
}

// TestEigenSymNonFinite: NaN or ±Inf anywhere in the input is an error,
// never a panic, a hang or a NaN-filled result.
func TestEigenSymNonFinite(t *testing.T) {
	for _, poison := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, n := range []int{1, 2, 5} {
			for _, pos := range [][2]int{{0, 0}, {n - 1, n - 1}, {0, n - 1}, {n / 2, n / 3}} {
				a := Identity(n)
				a.Set(pos[0], pos[1], poison)
				a.Set(pos[1], pos[0], poison)
				e, err := EigenSym(a)
				if err == nil {
					t.Fatalf("poison %v at %v in %dx%d: got %v, want an error", poison, pos, n, n, e.Values)
				}
				if !errors.Is(err, ErrNoConvergence) {
					t.Fatalf("poison %v at %v in %dx%d: error %q", poison, pos, n, n, err)
				}
			}
		}
	}
}

// TestTQL2NonFinite: a NaN or Inf in the tridiagonal form (which tred2
// produces only by overflow) is an error from tql2 itself. Unchecked, a
// NaN disables every convergence test: the unguarded JAMA scan then walks
// past the last index, and a NaN in tst1 returns the input unchanged.
func TestTQL2NonFinite(t *testing.T) {
	const n = 6
	for _, poison := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for i := 0; i < 2*n; i++ {
			d := []float64{1, 2, 3, 4, 5, 6}
			e := []float64{0, 1, 1, 1, 1, 1}
			if i < n {
				d[i] = poison
			} else {
				e[i-n] = poison
			}
			w := Identity(n).Data
			if err := tql2(w, n, d, e); err == nil {
				t.Fatalf("poison %v at %d: tql2 accepted a non-finite input", poison, i)
			}
		}
	}
}

// TestEigenSymDeterministicSigns: two calls on one input are bit-identical
// and leave the input alone, and every eigenvector column has its
// largest-magnitude component (lowest index on ties) positive.
func TestEigenSymDeterministicSigns(t *testing.T) {
	for _, c := range eigenCases() {
		before := c.a.Clone()
		e1, err := EigenSym(c.a)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		e2, err := EigenSym(c.a)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !bitsEqual(c.a.Data, before.Data) {
			t.Fatalf("%s: EigenSym modified its input", c.name)
		}
		if !bitsEqual(e1.Values, e2.Values) || !bitsEqual(e1.Q.Data, e2.Q.Data) {
			t.Fatalf("%s: two calls differ", c.name)
		}
		n := c.a.Rows
		for j := 0; j < n; j++ {
			big := 0
			for i := 1; i < n; i++ {
				if math.Abs(e1.Q.At(i, j)) > math.Abs(e1.Q.At(big, j)) {
					big = i
				}
			}
			if e1.Q.At(big, j) <= 0 {
				t.Fatalf("%s: column %d has its largest component Q[%d] = %g ≤ 0", c.name, j, big, e1.Q.At(big, j))
			}
		}
	}
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// decodeSym turns fuzz bytes into a symmetric n×n matrix, n ≤ 12. Each
// upper-triangle entry takes three bytes: an exponent byte selecting a
// scale from 1e-12 to 1e12 (or NaN/±Inf for the top six codes) and a
// signed 16-bit mantissa. Missing bytes read as zero.
func decodeSym(data []byte) *Matrix {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	n := 1 + int(next())%12
	m := New(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			x := next()
			mant := int16(binary.LittleEndian.Uint16([]byte{next(), next()}))
			var v float64
			switch {
			case x >= 254:
				v = math.NaN()
			case x >= 252:
				v = math.Inf(1)
			case x >= 250:
				v = math.Inf(-1)
			default:
				v = float64(mant) / 32768 * math.Pow(10, float64(int(x)%25-12))
			}
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
	return m
}

// FuzzEigenSym: on any finite symmetric input EigenSym meets the residual
// and orthogonality bounds; on any non-finite input it returns an error.
func FuzzEigenSym(f *testing.F) {
	f.Add([]byte{3, 12, 0, 64, 12, 0, 32, 12, 0, 16, 12, 0, 64, 12, 0, 8, 12, 0, 64})
	f.Add([]byte{5, 255, 1, 2})
	f.Add([]byte{11, 24, 255, 127, 0, 1, 0, 12, 7, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		a := decodeSym(data)
		e, err := EigenSym(a)
		if !allFinite(a.Data) {
			if err == nil {
				t.Fatalf("non-finite input accepted: %v", a)
			}
			return
		}
		if err != nil {
			t.Fatalf("finite input rejected: %v\n%v", err, a)
		}
		if r, b := eigenResidual(a, e), residualBound(a); r > b {
			t.Fatalf("residual %g > %g\n%v", r, b, a)
		}
		if o, b := orthoError(e.Q), orthoBound(a.Rows); o > b {
			t.Fatalf("orthogonality %g > %g\n%v", o, b, a)
		}
	})
}

// BenchmarkEigenSym times EigenSym against the Jacobi oracle on random SPD
// matrices of the proxy models' factor sizes:
//
//	go test -run xxx -bench EigenSym ./internal/tensor
func BenchmarkEigenSym(b *testing.B) {
	for _, n := range []int{64, 128, 289} {
		x := randomMatrix(rand.New(rand.NewPCG(uint64(n), 1)), n, n)
		a := New(0, 0).TMatMul(x, x)
		for _, s := range []struct {
			name  string
			solve func(*Matrix) (*Eigen, error)
		}{{"tql2", EigenSym}, {"jacobi", jacobiEigenSym}} {
			b.Run(fmt.Sprintf("%s/n=%d", s.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := s.solve(a); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
