package mixing

import (
	"testing"

	"distwalk/internal/core"
	"distwalk/internal/graph"
	"distwalk/internal/rng"
	"distwalk/internal/spectral"
)

func TestBucketOf(t *testing.T) {
	cases := []struct {
		pi   float64
		want int
	}{
		{1.0, 0},
		{0.6, 0},   // log2(1/0.6) ≈ 0.74
		{0.4, 1},   // log2(2.5) ≈ 1.3
		{0.1, 3},   // log2(10) ≈ 3.3
		{1e-30, 9}, // clamped
	}
	for _, tt := range cases {
		if got := BucketOf(tt.pi, 2, 10); got != tt.want {
			t.Fatalf("BucketOf(%v) = %d, want %d", tt.pi, got, tt.want)
		}
	}
	if BucketOf(0, 2, 10) != 0 || BucketOf(0.5, 1, 10) != 0 {
		t.Fatal("degenerate inputs should map to bucket 0")
	}
}

// uniformSetup builds buckets and samplers for the uniform distribution
// over n items (a regular graph's stationary distribution).
func uniformSetup(n int) []Bucket {
	pi := 1 / float64(n)
	maxB := 20
	buckets := make([]Bucket, maxB)
	j := BucketOf(pi, 2, maxB)
	buckets[j] = Bucket{Mass: 1, Mass2: pi, Count: int64(n)}
	return buckets
}

func TestIdentityStatisticLowForTrueSamples(t *testing.T) {
	const n = 64
	r := rng.New(1)
	buckets := uniformSetup(n)
	samples := make([]Sample, 200)
	for i := range samples {
		samples[i] = Sample{Node: graph.NodeID(r.Intn(n)), Pi: 1.0 / n}
	}
	stat, err := IdentityL1Estimate(samples, buckets, 2)
	if err != nil {
		t.Fatal(err)
	}
	noise := NoiseFloor(buckets, len(samples))
	if stat > 3*noise+0.05 {
		t.Fatalf("true samples scored %v, noise floor %v", stat, noise)
	}
}

func TestIdentityStatisticHighForConcentratedSamples(t *testing.T) {
	// All mass on one node of a 64-node uniform reference: L1 ≈ 2.
	const n = 64
	buckets := uniformSetup(n)
	samples := make([]Sample, 200)
	for i := range samples {
		samples[i] = Sample{Node: 7, Pi: 1.0 / n}
	}
	stat, err := IdentityL1Estimate(samples, buckets, 2)
	if err != nil {
		t.Fatal(err)
	}
	if stat < 1 {
		t.Fatalf("concentrated samples scored only %v", stat)
	}
}

func TestIdentityStatisticDetectsHalfSupport(t *testing.T) {
	// Samples uniform over half the items: true L1 = 1. The within-bucket
	// collision term must detect this even though bucket masses match.
	const n = 64
	r := rng.New(3)
	buckets := uniformSetup(n)
	samples := make([]Sample, 400)
	for i := range samples {
		samples[i] = Sample{Node: graph.NodeID(r.Intn(n / 2)), Pi: 1.0 / n}
	}
	stat, err := IdentityL1Estimate(samples, buckets, 2)
	if err != nil {
		t.Fatal(err)
	}
	noise := NoiseFloor(buckets, len(samples))
	if stat < noise+0.3 {
		t.Fatalf("half-support distribution scored %v (noise %v)", stat, noise)
	}
}

func TestIdentityStatisticValidation(t *testing.T) {
	if _, err := IdentityL1Estimate(nil, uniformSetup(4), 2); err == nil {
		t.Fatal("no samples accepted")
	}
	if _, err := IdentityL1Estimate([]Sample{{Node: 0, Pi: 0.5}}, nil, 2); err == nil {
		t.Fatal("no buckets accepted")
	}
}

func newWalker(t *testing.T, g *graph.G, seed uint64) *core.Walker {
	t.Helper()
	w, err := core.NewWalker(g, seed, core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestEstimateTauBracketsExactOnExpander(t *testing.T) {
	g, err := graph.ConnectedRandomRegular(48, 4, rng.New(7), 300)
	if err != nil {
		t.Fatal(err)
	}
	exactLoose, err := spectral.MixingTimeFrom(g, 0, 0.7, 100000)
	if err != nil {
		t.Fatal(err)
	}
	exactTight, err := spectral.MixingTimeFrom(g, 0, 0.02, 100000)
	if err != nil {
		t.Fatal(err)
	}
	w := newWalker(t, g, 11)
	est, err := EstimateTau(w, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if est.Tau < exactLoose/2 || est.Tau > 4*exactTight+8 {
		t.Fatalf("τ̃=%d outside plausible bracket [%d/2, 4·%d]", est.Tau, exactLoose, exactTight)
	}
	if est.Tests < 1 || est.Samples < 1 {
		t.Fatalf("bookkeeping: %+v", est)
	}
}

func TestEstimateTauSeparatesFamilies(t *testing.T) {
	// An odd cycle mixes in Θ(n²); an expander in Θ(log n). The estimates
	// must reflect the gap.
	cyc, err := graph.Cycle(33)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := graph.ConnectedRandomRegular(33, 4, rng.New(5), 300)
	if err != nil {
		t.Fatal(err)
	}
	wc := newWalker(t, cyc, 13)
	ec, err := EstimateTau(wc, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	we := newWalker(t, exp, 13)
	ee, err := EstimateTau(we, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ec.Tau < 4*ee.Tau {
		t.Fatalf("cycle τ̃=%d not ≫ expander τ̃=%d", ec.Tau, ee.Tau)
	}
}

func TestEstimateTauGapBracketContainsTruth(t *testing.T) {
	g, err := graph.ConnectedRandomRegular(40, 4, rng.New(9), 300)
	if err != nil {
		t.Fatal(err)
	}
	gap, err := spectral.SpectralGap(g)
	if err != nil {
		t.Fatal(err)
	}
	w := newWalker(t, g, 17)
	est, err := EstimateTau(w, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The bracket is loose by design; verify it is sane and contains the
	// truth within a factor 4 margin.
	if est.GapLo > est.GapHi {
		t.Fatalf("inverted gap bracket [%v, %v]", est.GapLo, est.GapHi)
	}
	if gap < est.GapLo/4 || gap > 4*est.GapHi {
		t.Fatalf("true gap %v outside 4x-widened bracket [%v, %v]", gap, est.GapLo, est.GapHi)
	}
	if est.CondLo > est.CondHi {
		t.Fatalf("inverted conductance bracket [%v, %v]", est.CondLo, est.CondHi)
	}
}

func TestEstimateTauDeterministic(t *testing.T) {
	g, err := graph.ConnectedRandomRegular(30, 4, rng.New(21), 300)
	if err != nil {
		t.Fatal(err)
	}
	run := func() int {
		w := newWalker(t, g, 23)
		est, err := EstimateTau(w, 0, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return est.Tau
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("estimates diverged: %d vs %d", a, b)
	}
}

func TestEstimateTauTinyGraphRejected(t *testing.T) {
	w := newWalker(t, graph.New(1), 1)
	if _, err := EstimateTau(w, 0, Options{}); err == nil {
		t.Fatal("singleton accepted")
	}
}

func TestEstimateTauRoundsSublinearInTau(t *testing.T) {
	// Theorem 4.6: cost Õ(√n + n^{1/4}√(Dτ)) — on a slow-mixing cycle this
	// is far below the naive K·τ.
	g, err := graph.Cycle(41)
	if err != nil {
		t.Fatal(err)
	}
	w := newWalker(t, g, 29)
	est, err := EstimateTau(w, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := spectral.MixingTimeFrom(g, 0, spectral.EpsMix, 1000000)
	if err != nil {
		t.Fatal(err)
	}
	naive := est.Samples * exact // K walks of length τ, token-forwarded one by one
	if est.Cost.Rounds >= naive {
		t.Fatalf("estimator cost %d not below naive %d", est.Cost.Rounds, naive)
	}
}
