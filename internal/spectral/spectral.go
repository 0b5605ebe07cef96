// Package spectral computes exact spectral quantities of small graphs —
// the second eigenvalue λ₂ of the walk's transition matrix, the spectral
// gap 1−λ₂, Cheeger-style conductance brackets, and the exact mixing time
// τ^x(ε) — as ground truth for the decentralized estimator of Section 4.2.
//
// The paper relates these quantities as (Section 4.2, citing Jerrum &
// Sinclair): 1/(1−λ₂) ≤ τ_mix ≤ log n/(1−λ₂) and
// Θ(1−λ₂) ≤ Φ ≤ Θ(√(1−λ₂)).
package spectral

import (
	"fmt"
	"math"

	"distwalk/internal/dist"
	"distwalk/internal/graph"
)

// maxEigN caps the dense eigensolver's input size; beyond this the O(n³)
// Jacobi sweeps get slow and callers should rely on MixingTimeFrom instead.
const maxEigN = 2000

// TransitionSpectrum returns the eigenvalues of the random-walk transition
// matrix P = D⁻¹A in non-increasing order. P is similar to the symmetric
// N = D^{-1/2} A D^{-1/2}, so its spectrum is real; we diagonalize N with
// cyclic Jacobi rotations.
func TransitionSpectrum(g *graph.G) ([]float64, error) {
	n := g.N()
	switch {
	case n == 0:
		return nil, fmt.Errorf("spectral: empty graph")
	case n > maxEigN:
		return nil, fmt.Errorf("spectral: n=%d exceeds dense eigensolver cap %d", n, maxEigN)
	}
	for v := 0; v < n; v++ {
		if g.Degree(graph.NodeID(v)) == 0 {
			return nil, fmt.Errorf("spectral: node %d is isolated", v)
		}
	}
	// Build N = D^{-1/2} A D^{-1/2} with weighted degrees.
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n)
	}
	for i := 0; i < g.M(); i++ {
		e := g.Edge(i)
		s := e.W / math.Sqrt(g.WeightedDegree(e.U)*g.WeightedDegree(e.V))
		a[e.U][e.V] += s
		a[e.V][e.U] += s
	}
	eig, err := SymEig(a)
	if err != nil {
		return nil, err
	}
	return eig, nil
}

// SpectralGap returns 1 − λ₂ where λ₂ is the second-largest eigenvalue of
// the transition matrix.
func SpectralGap(g *graph.G) (float64, error) {
	eig, err := TransitionSpectrum(g)
	if err != nil {
		return 0, err
	}
	if len(eig) < 2 {
		return 1, nil
	}
	return 1 - eig[1], nil
}

// CheegerBounds returns the conductance bracket implied by the spectral
// gap: gap/2 ≤ Φ ≤ √(2·gap) (the discrete Cheeger inequality).
func CheegerBounds(gap float64) (lo, hi float64) {
	if gap < 0 {
		gap = 0
	}
	return gap / 2, math.Sqrt(2 * gap)
}

// MixingTimeBracket returns the τ_mix bracket implied by the spectral gap
// (Section 4.2): 1/gap ≤ τ_mix ≤ ln(n)/gap. It returns an error for a
// non-positive gap (disconnected or bipartite graph).
func MixingTimeBracket(gap float64, n int) (lo, hi float64, err error) {
	if gap <= 0 {
		return 0, 0, fmt.Errorf("spectral: non-positive gap %v", gap)
	}
	return 1 / gap, math.Log(float64(n)) / gap, nil
}

// MixingTimeFrom computes the exact τ^x(ε) = min{t : ||π_x(t) − π||₁ < ε}
// (Definition 4.3) by iterating the exact walk distribution, up to tMax
// steps. Monotonicity of the ℓ₁ distance (Lemma 4.4) makes the returned
// value well-defined.
func MixingTimeFrom(g *graph.G, x graph.NodeID, eps float64, tMax int) (int, error) {
	if eps <= 0 {
		return 0, fmt.Errorf("spectral: eps must be positive, got %v", eps)
	}
	pi, err := dist.Stationary(g)
	if err != nil {
		return 0, err
	}
	p, err := dist.Point(g.N(), x)
	if err != nil {
		return 0, err
	}
	for t := 0; t <= tMax; t++ {
		if p.L1(pi) < eps {
			return t, nil
		}
		if p, err = dist.Step(g, p); err != nil {
			return 0, err
		}
	}
	return 0, fmt.Errorf("spectral: walk from %d not %v-mixed within %d steps (bipartite graph?)", x, eps, tMax)
}

// EpsMix is the ε defining the paper's τ_mix (Definition 4.3: τ^x(1/2e)).
const EpsMix = 1 / (2 * math.E)
