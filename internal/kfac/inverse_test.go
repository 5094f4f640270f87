package kfac

import (
	"errors"
	"math"
	"strings"
	"testing"

	"compso/internal/nn"
	"compso/internal/tensor"
	"compso/internal/xrand"
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

// TestAccumulateStatsNonFiniteActivation: an Inf activation captured by a
// layer poisons its whole row and column of factor A, also where it meets
// the zeros of a ReLU output (Gram does not skip zero products), and
// RefreshEigen then rejects the factor with the layer-and-factor wrapped
// error instead of decomposing a finite-looking one.
func TestAccumulateStatsNonFiniteActivation(t *testing.T) {
	model := buildModel(12)
	k := New(model, DefaultConfig())
	x, y := makeBatch(xrand.NewSeeded(7), 8)
	_, grad := nn.SoftmaxCrossEntropy{}.Loss(model.Forward(x, true), y)
	model.Backward(grad)
	// Layer 1's input is the ReLU output plus the bias column.
	l := k.layers[1]
	act, _ := l.layer.KFACStats()
	zero := -1
	for j := 0; j < act.Cols; j++ {
		if act.At(0, j) == 0 {
			zero = j
		}
	}
	if zero < 0 {
		t.Fatal("fixture: the first sample has no zero activation")
	}
	poisoned := (zero + 1) % act.Cols
	act.Set(0, poisoned, math.Inf(1))
	k.AccumulateStats(8)
	if err := k.CommitCovariances(k.PendingCovariances(), 1); err != nil {
		t.Fatal(err)
	}
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	for j := 0; j < l.A.Cols; j++ {
		if finite(l.A.At(poisoned, j)) || finite(l.A.At(j, poisoned)) {
			t.Fatalf("factor A entries (%d,%d)/(%d,%d) = %g/%g: finite despite the Inf activation",
				poisoned, j, j, poisoned, l.A.At(poisoned, j), l.A.At(j, poisoned))
		}
	}
	err := k.RefreshEigen(1)
	want := "kfac: layer " + l.name + " factor A: "
	if err == nil || !strings.HasPrefix(err.Error(), want) || !errors.Is(err, tensor.ErrNoConvergence) {
		t.Fatalf("RefreshEigen error %v, want prefix %q wrapping tensor.ErrNoConvergence", err, want)
	}
	if l.eigA != nil || l.eigG != nil {
		t.Fatal("decomposition cached despite the error")
	}
}
