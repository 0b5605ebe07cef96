package mixing

import (
	"fmt"
	"math"

	"distwalk/internal/graph"
)

// This file implements the distribution-identity comparator of Batu,
// Fischer, Fortnow, Kumar, Rubinfeld and White (FOCS 2001) — Theorem 4.5
// of the paper — in the form used by the decentralized mixing-time
// estimator: the reference distribution is the stationary π, which every
// node knows locally (π(v) = deg(v)/2m), and the tested distribution X is
// the ℓ-step walk distribution observed through K = Õ(√n) endpoint
// samples.
//
// Nodes are partitioned into buckets of geometrically comparable π mass.
// Across buckets the empirical bucket masses are compared to the exact
// ones; within a bucket j the ℓ₂ distance between the conditional sample
// distribution X_j and the conditional reference q_j = π|B_j /Q_j is
// estimated from sample collisions — the standard unbiased estimators
//
//	E[collisions]/C(K_j,2) = ||X_j||₂²  and  E_s[q_j(s)] = ⟨X_j, q_j⟩,
//
// giving ||X_j−q_j||₂² = ||X_j||₂² − 2⟨X_j,q_j⟩ + ||q_j||₂², which
// converts to an ℓ₁ bound via Cauchy-Schwarz: ||·||₁ ≤ √|B_j|·||·||₂.
// The total statistic is
//
//	Σ_j |K_j/K − Q_j|  +  Σ_j min(Q_j,K_j/K)·√|B_j|·d₂(j),
//
// an estimate (up to sampling noise) of ||X − π||₁.

// Bucket is the exact per-bucket reference data, aggregated distributedly
// by convergecast: total π mass, total π² mass, and the node count.
type Bucket struct {
	Mass  float64
	Mass2 float64
	Count int64
}

// Sample is one walk-endpoint observation: the node and its stationary
// mass (computable by the receiver from the degree carried in the
// destination report).
type Sample struct {
	Node graph.NodeID
	Pi   float64
}

// BucketOf maps a stationary mass to its bucket: ⌊log_ratio(1/π)⌋ clamped
// to [0, maxBuckets).
func BucketOf(pi, ratio float64, maxBuckets int) int {
	if pi <= 0 || ratio <= 1 || maxBuckets < 1 {
		return 0
	}
	j := int(math.Floor(math.Log(1/pi) / math.Log(ratio)))
	if j < 0 {
		j = 0
	}
	if j >= maxBuckets {
		j = maxBuckets - 1
	}
	return j
}

// IdentityL1Estimate computes the bucketed L1 statistic described above.
// buckets[j] must describe bucket j exactly; each sample is assigned to
// BucketOf(sample.Pi, ratio, len(buckets)).
func IdentityL1Estimate(samples []Sample, buckets []Bucket, ratio float64) (float64, error) {
	if len(samples) == 0 {
		return 0, fmt.Errorf("mixing: no samples")
	}
	if len(buckets) == 0 {
		return 0, fmt.Errorf("mixing: no buckets")
	}
	k := float64(len(samples))
	// One stable counting sort by bucket into one slab: order lists the
	// sample indices bucket by bucket, each bucket's in sample order, so
	// every sum below adds in the order the samples came. bucket[i] is
	// sample i's bucket; end[j] counts the samples of buckets below j,
	// and after placing them, up to j.
	ends, ns := len(buckets)+1, len(samples)
	slab := make([]int, ends+2*ns)
	end, bucket, order := slab[:ends], slab[ends:ends+ns], slab[ends+ns:]
	for i, s := range samples {
		bucket[i] = BucketOf(s.Pi, ratio, len(buckets))
		end[bucket[i]+1]++
	}
	for j := range buckets {
		end[j+1] += end[j]
	}
	for i, j := range bucket {
		order[end[j]] = i
		end[j]++
	}
	total := 0.0
	lo := 0
	for j, b := range buckets {
		group := order[lo:end[j]]
		lo = end[j]
		kj := float64(len(group))
		wj := kj / k
		// Across-bucket mass mismatch.
		total += math.Abs(wj - b.Mass)
		if b.Count == 0 || len(group) < 2 {
			continue
		}
		// Within-bucket ℓ₂ identity estimate.
		var collisions, dot float64
		for a := 0; a < len(group); a++ {
			dot += samples[group[a]].Pi / b.Mass
			for c := a + 1; c < len(group); c++ {
				if samples[group[a]].Node == samples[group[c]].Node {
					collisions++
				}
			}
		}
		pairs := kj * (kj - 1) / 2
		x2 := collisions / pairs
		xq := dot / kj
		q2 := b.Mass2 / (b.Mass * b.Mass)
		d2 := x2 - 2*xq + q2
		if d2 < 0 {
			d2 = 0 // estimator noise can dip below zero
		}
		weight := math.Min(b.Mass, wj)
		total += weight * math.Sqrt(float64(b.Count)) * math.Sqrt(d2)
	}
	return total, nil
}

// NoiseFloor estimates the expected value of the statistic when X == π:
// binomial noise in the bucket masses plus the within-bucket estimator's
// standard error. Thresholds are set relative to it.
func NoiseFloor(buckets []Bucket, k int) float64 {
	if k < 2 {
		return 1
	}
	noise := 0.0
	for _, b := range buckets {
		if b.Count == 0 {
			continue
		}
		// Bucket-mass binomial deviation. Clamp against float drift: the
		// full bucket's mass can sum to 1+2e-16 and make 1-mass negative.
		mass := math.Min(math.Max(b.Mass, 0), 1)
		noise += math.Sqrt(mass * (1 - mass) / float64(k))
		// Within-bucket term: with X=q the ℓ₂² estimate fluctuates by
		// ~||q_j||₂²·√(2/pairs); after √ and the √|B_j| scaling this is
		// approximately √|B_j|·||q_j||₂·(2/pairs)^{1/4}.
		kj := b.Mass * float64(k) // expected samples in bucket
		if kj < 2 {
			continue
		}
		pairs := kj * (kj - 1) / 2
		q2 := b.Mass2 / (b.Mass * b.Mass)
		noise += b.Mass * math.Sqrt(float64(b.Count)) * math.Sqrt(math.Sqrt(2/pairs)*q2)
	}
	return noise
}
