// Package mixing implements the paper's second application (Section 4.2):
// fully decentralized estimation of the mixing time τ^x_mix of the
// network, and through it brackets on the spectral gap and conductance.
//
// Given a source x, the estimator repeatedly runs K = Õ(√n) random walks
// of length ℓ with MANY-RANDOM-WALKS, compares the endpoint sample against
// the stationary distribution with the bucketing comparator of Batu et al.
// (Theorem 4.5), and doubles ℓ until the comparison passes; monotonicity of
// ||π_x(t) − π||₁ (Lemma 4.4) then lets a binary search pin down the
// estimate. Total cost Õ(n^{1/2} + n^{1/4}·√(D·τ^x)) rounds (Theorem 4.6).
package mixing

import (
	"errors"
	"fmt"
	"math"

	"distwalk/internal/congest"
	"distwalk/internal/core"
	"distwalk/internal/graph"
	"distwalk/internal/spectral"
)

// ErrNoMixing is wrapped by EstimateTau when no tested walk length up to
// MaxEll passes the closeness test — on a connected graph this indicates
// bipartiteness (the walk distribution never converges).
var ErrNoMixing = errors.New("mixing: no tested length passed the closeness test")

// Options tunes the estimator; the zero value uses the defaults below.
type Options struct {
	// Samples is K, the walks per tested length (default ⌈6·√n⌉).
	Samples int
	// Eps is the target ℓ₁ closeness: the estimate τ̃ is the smallest
	// tested ℓ whose sample passes the ε test (default 1/2e, the paper's
	// τ_mix definition).
	Eps float64
	// BucketRatio is the geometric ratio between bucket boundaries
	// (default 2: buckets of within-factor-2 stationary mass).
	BucketRatio float64
	// MaxEll caps the doubling search (default 4·n³, far beyond any
	// connected non-bipartite graph's mixing time at default ε, clamped
	// at the longest walk, math.MaxInt32).
	MaxEll int
	// Debug prints each tested (ℓ, statistic, threshold) to stdout.
	Debug bool
}

// Estimate is the estimator's output.
type Estimate struct {
	Source graph.NodeID
	// Tau is τ̃: the smallest tested walk length that passed the
	// closeness test. It satisfies τ_mix ≤ τ̃ ≤ τ^x(ε') w.h.p. for the
	// comparator's (ε, ε') pair (Theorem 4.6).
	Tau int
	// LastFail is the largest tested length that failed (0 if ℓ=1 passed):
	// together with Tau it brackets the transition.
	LastFail int
	// Samples is K, walks per tested length.
	Samples int
	// Tests is the number of lengths tested.
	Tests int
	// GapLo, GapHi bracket the spectral gap 1−λ₂ via
	// 1/(1−λ₂) ≤ τ_mix ≤ log n/(1−λ₂).
	GapLo, GapHi float64
	// CondLo, CondHi bracket the conductance via Cheeger's inequality.
	CondLo, CondHi float64
	// Cost is the total simulated cost.
	Cost congest.Result
}

// Message kinds: the degree sum and one bucket's statistics.
const (
	kindFloat  uint16 = 1
	kindBucket uint16 = 2
)

func floatMsg(f float64) congest.Message {
	return congest.MakeMessage(graph.None, graph.None, kindFloat, 2, [congest.PayloadWords]uint64{math.Float64bits(f)})
}

func readFloat(m *congest.Message) float64 { return math.Float64frombits(m.W[0]) }

func bucketMsg(b Bucket) congest.Message {
	return congest.MakeMessage(graph.None, graph.None, kindBucket, 5, [congest.PayloadWords]uint64{
		math.Float64bits(b.Mass), math.Float64bits(b.Mass2), uint64(b.Count),
	})
}

func readBucket(m *congest.Message) Bucket {
	return Bucket{
		Mass:  math.Float64frombits(m.W[0]),
		Mass2: math.Float64frombits(m.W[1]),
		Count: int64(m.W[2]),
	}
}

// EstimateTau runs the decentralized mixing-time estimation from source x.
func EstimateTau(w *core.Walker, x graph.NodeID, opt Options) (*Estimate, error) {
	g := w.Graph()
	n := g.N()
	if n < 2 {
		return nil, fmt.Errorf("%w: mixing estimation needs n >= 2, got %d", core.ErrGraphTooSmall, n)
	}
	if opt.Samples <= 0 {
		opt.Samples = int(math.Ceil(6 * math.Sqrt(float64(n))))
	}
	if opt.Eps <= 0 {
		opt.Eps = spectral.EpsMix
	}
	if opt.BucketRatio <= 1 {
		opt.BucketRatio = 2
	}
	if opt.MaxEll <= 0 {
		opt.MaxEll = min(4*n*n*n, math.MaxInt32)
	}
	out := &Estimate{Source: x, Samples: opt.Samples}

	res, err := w.Prepare(x)
	out.Cost.Add(res)
	if err != nil {
		return nil, err
	}
	buckets, res, err := bucketSetup(w, opt.BucketRatio)
	out.Cost.Add(res)
	if err != nil {
		return nil, err
	}
	threshold := opt.Eps + 2*NoiseFloor(buckets, opt.Samples)

	test := func(ell int) (bool, error) {
		out.Tests++
		stat, err := sampleStat(w, x, ell, opt, buckets, out)
		if err != nil {
			return false, err
		}
		if opt.Debug {
			fmt.Printf("mixing: ℓ=%d stat=%.4f threshold=%.4f\n", ell, stat, threshold)
		}
		return stat <= threshold, nil
	}

	// Doubling phase: find the first power of two that passes.
	lastFail := 0
	ell := 1
	for {
		if ell > opt.MaxEll {
			return nil, fmt.Errorf("%w: no ℓ ≤ %d passed at ε=%v (bipartite graph?)", ErrNoMixing, opt.MaxEll, opt.Eps)
		}
		pass, err := test(ell)
		if err != nil {
			return nil, err
		}
		if pass {
			break
		}
		lastFail = ell
		ell *= 2
	}
	// Binary search in (lastFail, ell]: monotonicity (Lemma 4.4) makes the
	// transition well-defined up to sampling noise.
	lo, hi := lastFail+1, ell
	for lo < hi {
		mid := (lo + hi) / 2
		pass, err := test(mid)
		if err != nil {
			return nil, err
		}
		if pass {
			hi = mid
		} else {
			if mid > lastFail {
				lastFail = mid
			}
			lo = mid + 1
		}
	}
	out.Tau = lo
	out.LastFail = lastFail

	// Spectral-gap and conductance brackets (Section 4.2 closing remarks).
	if out.Tau > 0 {
		out.GapLo = 1 / float64(out.Tau)
		out.GapHi = math.Log(float64(n)) / float64(out.Tau)
		if out.GapHi > 1 {
			out.GapHi = 1
		}
		out.CondLo, _ = spectral.CheegerBounds(out.GapLo)
		_, out.CondHi = spectral.CheegerBounds(out.GapHi)
	}
	return out, nil
}

// bucketSetup computes the exact per-bucket stationary statistics with
// distributed convergecasts: first Σdeg = 2m (so each node knows its own
// π), then per bucket (Σπ, Σπ², count) — O(#buckets·D) rounds total.
func bucketSetup(w *core.Walker, ratio float64) ([]Bucket, congest.Result, error) {
	g := w.Graph()
	tree := w.Tree()
	var cost congest.Result

	degSum, res, err := congest.Convergecast(w.Network(), tree,
		func(v graph.NodeID) congest.Message { return floatMsg(g.WeightedDegree(v)) },
		func(_ graph.NodeID, acc, child *congest.Message) { *acc = floatMsg(readFloat(acc) + readFloat(child)) },
	)
	cost.Add(res)
	if err != nil {
		return nil, cost, err
	}
	res, err = congest.Broadcast(w.Network(), tree, []congest.Message{degSum}, nil)
	cost.Add(res)
	if err != nil {
		return nil, cost, err
	}
	total := readFloat(&degSum)
	if total <= 0 {
		return nil, cost, fmt.Errorf("mixing: graph has no edges")
	}

	// π_min ≥ (min degree)/2m bounds the number of non-empty buckets.
	maxBuckets := int(math.Ceil(math.Log(total)/math.Log(ratio))) + 2
	if maxBuckets > 64 {
		maxBuckets = 64
	}
	buckets := make([]Bucket, maxBuckets)
	for j := 0; j < maxBuckets; j++ {
		b, res, err := congest.Convergecast(w.Network(), tree,
			func(v graph.NodeID) congest.Message {
				pi := g.WeightedDegree(v) / total
				if BucketOf(pi, ratio, maxBuckets) != j {
					return bucketMsg(Bucket{})
				}
				return bucketMsg(Bucket{Mass: pi, Mass2: pi * pi, Count: 1})
			},
			func(_ graph.NodeID, acc, child *congest.Message) {
				a, c := readBucket(acc), readBucket(child)
				*acc = bucketMsg(Bucket{Mass: a.Mass + c.Mass, Mass2: a.Mass2 + c.Mass2, Count: a.Count + c.Count})
			},
		)
		cost.Add(res)
		if err != nil {
			return nil, cost, err
		}
		buckets[j] = readBucket(&b)
	}
	return buckets, cost, nil
}

// sampleStat draws K endpoints of ℓ-walks from x and evaluates the
// identity statistic. Endpoint reports carry the destination's degree, so
// the source computes each sample's π locally.
func sampleStat(w *core.Walker, x graph.NodeID, ell int, opt Options, buckets []Bucket, out *Estimate) (float64, error) {
	g := w.Graph()
	sources := make([]graph.NodeID, opt.Samples)
	for i := range sources {
		sources[i] = x
	}
	many, err := w.ManyRandomWalks(sources, ell)
	if err != nil {
		return 0, err
	}
	out.Cost.Add(many.Cost)

	total := 0.0
	for v := 0; v < g.N(); v++ {
		total += g.WeightedDegree(graph.NodeID(v))
	}
	samples := make([]Sample, len(many.Destinations))
	for i, d := range many.Destinations {
		samples[i] = Sample{Node: d, Pi: g.WeightedDegree(d) / total}
	}
	return IdentityL1Estimate(samples, buckets, opt.BucketRatio)
}
