package kfac

import (
	"errors"
	"math"
	"strings"
	"testing"

	"compso/internal/tensor"
)

// TestRefreshCholeskyRejectsNonFiniteFactors pins the pi-guard bugfix: a
// NaN factor trace compares false against `> 0` and used to sail through
// with pi = 1, baking NaN into the cached inverses. It must instead
// surface the typed ErrNonFiniteFactor before any inversion happens.
func TestRefreshCholeskyRejectsNonFiniteFactors(t *testing.T) {
	for _, poison := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		k := New(buildModel(9), DefaultConfig())
		l := k.layers[0]
		for i := 0; i < l.A.Rows; i++ {
			l.A.Data[i*l.A.Cols+i] = 1
		}
		for i := 0; i < l.G.Rows; i++ {
			l.G.Data[i*l.G.Cols+i] = 1
		}
		l.A.Data[0] = poison
		err := k.refreshCholesky(0)
		if err == nil {
			t.Fatalf("poison %v: refreshCholesky accepted a non-finite factor", poison)
		}
		if !errors.Is(err, ErrNonFiniteFactor) {
			t.Fatalf("poison %v: error %v is not ErrNonFiniteFactor", poison, err)
		}
		if l.invA != nil || l.invG != nil {
			t.Fatalf("poison %v: inverses cached despite the guard", poison)
		}
	}
}

// TestRefreshCholeskyAcceptsFiniteFactors: the guard must not reject
// healthy statistics.
func TestRefreshCholeskyAcceptsFiniteFactors(t *testing.T) {
	k := New(buildModel(9), DefaultConfig())
	l := k.layers[0]
	for i := 0; i < l.A.Rows; i++ {
		l.A.Data[i*l.A.Cols+i] = 2
	}
	for i := 0; i < l.G.Rows; i++ {
		l.G.Data[i*l.G.Cols+i] = 0.5
	}
	if err := k.refreshCholesky(0); err != nil {
		t.Fatalf("finite factors rejected: %v", err)
	}
	if l.invA == nil || l.invG == nil {
		t.Fatal("inverses not cached")
	}
	for _, x := range l.invA.Data {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Fatal("non-finite inverse from finite factors")
		}
	}
}

// TestRefreshEigenRejectsNonFiniteFactors: a NaN or Inf factor reaching
// the eigendecomposition route surfaces as the layer-and-factor wrapped
// EigenSym error (never a panic) and caches no decomposition.
func TestRefreshEigenRejectsNonFiniteFactors(t *testing.T) {
	for _, poison := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, factor := range []string{"A", "G"} {
			k := New(buildModel(9), DefaultConfig())
			l := k.layers[0]
			for i := 0; i < l.A.Rows; i++ {
				l.A.Data[i*l.A.Cols+i] = 1
			}
			for i := 0; i < l.G.Rows; i++ {
				l.G.Data[i*l.G.Cols+i] = 1
			}
			if factor == "A" {
				l.A.Data[1] = poison
			} else {
				l.G.Data[0] = poison
			}
			err := k.RefreshEigen(0)
			if err == nil {
				t.Fatalf("poison %v in %s: RefreshEigen accepted a non-finite factor", poison, factor)
			}
			want := "kfac: layer " + l.name + " factor " + factor + ": "
			if !strings.HasPrefix(err.Error(), want) || !errors.Is(err, tensor.ErrNoConvergence) {
				t.Fatalf("poison %v in %s: error %q, want prefix %q", poison, factor, err, want)
			}
			if l.eigA != nil || l.eigG != nil {
				t.Fatalf("poison %v in %s: decomposition cached despite the error", poison, factor)
			}
		}
	}
}
