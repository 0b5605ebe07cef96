package core

import (
	"fmt"
	"math"
)

// Params tunes the walk algorithms. The zero value is NOT ready to use;
// call DefaultParams (or fill the fields) so that multipliers are positive.
type Params struct {
	// LambdaC scales the short-walk base length: λ = ⌈LambdaC·√(ℓ·D)⌉.
	// The paper's analysis sets λ = 24·√(ℓD)·(log n)³ (proof of Theorem
	// 2.5), which is asymptotically right but so conservative that λ > ℓ on
	// any laptop-scale instance, degenerating to the naive walk. The
	// default LambdaC = 1 keeps the √(ℓD) shape; GET-MORE-WALKS supplies
	// any short walks the dropped polylog factor would have pre-provisioned,
	// so correctness is unaffected (the algorithm is Las Vegas).
	LambdaC float64
	// Lambda overrides λ directly when positive (used by tests/ablations).
	Lambda int
	// Eta is the number of Phase 1 short walks per unit of degree
	// (η in the paper; each node prepares η·deg(v) walks). Default 1.
	Eta int
	// Theory applies the paper's constants verbatim:
	// λ = 24·√(ℓD)·(log₂ n)³ with η = 1.
	Theory bool
	// FixedLength makes every short walk exactly λ long instead of uniform
	// in [λ, 2λ−1]. This reverts the paper's key fix for connector
	// periodicity (Lemma 2.7) and is the PODC 2009 behaviour; exposed for
	// the ablation in TestClaimLemma27FixedLengthAblation.
	FixedLength bool
	// UniformCounts gives every node exactly η short walks instead of
	// η·deg(v) (the PODC 2009 behaviour; the ablation in
	// TestClaimLemma26UniformCountsAblation).
	UniformCounts bool
	// PerCallBFS rebuilds a BFS tree rooted at the current connector on
	// every SAMPLE-DESTINATION call, as Algorithm 3 does literally, instead
	// of reusing the tree rooted at the source. Both cost Θ(D) rounds per
	// call.
	PerCallBFS bool
	// Metropolis samples the Metropolis-Hastings walk with uniform target
	// distribution instead of the simple walk — the generalization the
	// PODC 2009 predecessor supports (Section 1.3). Stays consume walk
	// steps but no messages. Endpoint sampling (single and many walks) and
	// Regenerate are supported: a stay is a keyed draw like a hop, so the
	// replay recomputes it where the walk stayed.
	Metropolis bool
}

// DefaultParams returns the practical parameterization used throughout:
// λ = √(ℓD), η = 1, random short-walk lengths, degree-proportional Phase 1
// counts.
func DefaultParams() Params {
	return Params{LambdaC: 1, Eta: 1}
}

// DNP09Params returns the parameterization of the earlier Das Sarma-
// Nanongkai-Pandurangan (PODC 2009) algorithm, the paper's baseline:
// fixed-length short walks, uniform per-node counts, and λ, η chosen to
// balance the O(ηλ + ℓD/λ + ℓ/η) bound at Õ(ℓ^{2/3}D^{1/3}):
// λ = (ℓD²)^{1/3}, η = (ℓ/D)^{1/3}.
func DNP09Params(ell, diam int) Params {
	if ell < 1 {
		ell = 1
	}
	if diam < 1 {
		diam = 1
	}
	l := float64(ell)
	d := float64(diam)
	lambda := int(math.Ceil(math.Cbrt(l * d * d)))
	eta := int(math.Ceil(math.Cbrt(l / d)))
	if lambda < 1 {
		lambda = 1
	}
	if eta < 1 {
		eta = 1
	}
	return Params{
		Lambda:        lambda,
		LambdaC:       1,
		Eta:           eta,
		FixedLength:   true,
		UniformCounts: true,
	}
}

// Validate reports whether p is a usable parameterization; failures wrap
// ErrBadParams. The service layer validates options before building its
// worker pool.
func (p Params) Validate() error { return p.validate() }

func (p Params) validate() error {
	if p.Lambda == 0 && p.LambdaC <= 0 && !p.Theory {
		return fmt.Errorf("%w: need positive LambdaC or Lambda (use DefaultParams)", ErrBadParams)
	}
	if p.Eta < 1 {
		return fmt.Errorf("%w: need Eta >= 1, got %d", ErrBadParams, p.Eta)
	}
	if p.Lambda < 0 {
		return fmt.Errorf("%w: negative Lambda %d", ErrBadParams, p.Lambda)
	}
	return nil
}

// lambda returns the short-walk base length for a single ℓ-step walk on a
// graph with n nodes and (estimated) diameter diam.
func (p Params) lambda(ell, diam, n int) int {
	if p.Lambda > 0 {
		return p.Lambda
	}
	if diam < 1 {
		diam = 1
	}
	if p.Theory {
		lg := math.Log2(float64(max(n, 2)))
		return ceilPos(24 * math.Sqrt(float64(ell)*float64(diam)) * lg * lg * lg)
	}
	return ceilPos(p.LambdaC * math.Sqrt(float64(ell)*float64(diam)))
}

// lambdaMany returns λ for k simultaneous walks (Theorem 2.8): practical
// form c·(√(kℓD)+k); theory form (24√(kℓD+1)·log n + k)(log n)².
func (p Params) lambdaMany(k, ell, diam, n int) int {
	if p.Lambda > 0 {
		return p.Lambda
	}
	if diam < 1 {
		diam = 1
	}
	kl := float64(k) * float64(ell) * float64(diam)
	if p.Theory {
		lg := math.Log2(float64(max(n, 2)))
		return ceilPos((24*math.Sqrt(kl+1)*lg + float64(k)) * lg * lg)
	}
	return ceilPos(p.LambdaC * (math.Sqrt(kl) + float64(k)))
}

func ceilPos(x float64) int {
	v := int(math.Ceil(x))
	if v < 1 {
		return 1
	}
	return v
}
