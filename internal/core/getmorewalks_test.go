package core

import (
	"testing"

	"distwalk/internal/dist"
	"distwalk/internal/graph"
	"distwalk/internal/stats"
)

func TestGetMoreWalksMintsCoupons(t *testing.T) {
	g, err := graph.Torus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	w := newWalker(t, g, 3, DefaultParams())
	const (
		owner  = graph.NodeID(5)
		ell    = 100
		lambda = 10
	)
	res, err := w.getMoreWalks(owner, ell, lambda)
	if err != nil {
		t.Fatal(err)
	}
	total := w.st.couponTotal(owner)
	if total != ell/lambda {
		t.Fatalf("minted %d coupons, want %d", total, ell/lambda)
	}
	if res.Rounds < lambda || res.Rounds > 4*lambda {
		t.Fatalf("GET-MORE-WALKS took %d rounds, want ≈ 2λ = %d", res.Rounds, 2*lambda)
	}
	for v := range w.st.coupons {
		for _, c := range w.st.localCoupons(graph.NodeID(v), owner) {
			if int(c.length) < lambda || int(c.length) > 2*lambda-1 {
				t.Fatalf("coupon length %d outside [λ, 2λ-1] = [%d, %d]", c.length, lambda, 2*lambda-1)
			}
		}
	}
}

func TestGetMoreWalksLengthsUniform(t *testing.T) {
	// A refill walk draws its length by Phase 1's lengthKey, so lengths
	// must be uniform on [λ, 2λ-1] (Lemma 2.4). Mint a large batch and
	// chi-square the lengths.
	g, err := graph.Complete(8)
	if err != nil {
		t.Fatal(err)
	}
	w := newWalker(t, g, 7, DefaultParams())
	const (
		owner  = graph.NodeID(0)
		lambda = 8
		batch  = 8000 // ell/lambda tokens
	)
	if _, err := w.getMoreWalks(owner, batch*lambda, lambda); err != nil {
		t.Fatal(err)
	}
	counts := make([]int, lambda) // index length-λ
	for v := range w.st.coupons {
		for _, c := range w.st.localCoupons(graph.NodeID(v), owner) {
			counts[int(c.length)-lambda]++
		}
	}
	totalCoupons := 0
	for _, c := range counts {
		totalCoupons += c
	}
	if totalCoupons != batch {
		t.Fatalf("minted %d coupons, want %d", totalCoupons, batch)
	}
	p, err := stats.UniformityPValue(counts)
	if err != nil {
		t.Fatal(err)
	}
	if p < 1e-4 {
		t.Fatalf("refill lengths not uniform: %v (p=%v)", counts, p)
	}
}

func TestGetMoreWalksMinimumBatch(t *testing.T) {
	g, err := graph.Complete(4)
	if err != nil {
		t.Fatal(err)
	}
	w := newWalker(t, g, 9, DefaultParams())
	// ell < lambda still mints at least one walk.
	if _, err := w.getMoreWalks(0, 3, 10); err != nil {
		t.Fatal(err)
	}
	if total := w.st.couponTotal(0); total != 1 {
		t.Fatalf("minted %d coupons, want 1", total)
	}
}

func TestGetMoreWalksEndpointDistribution(t *testing.T) {
	// A refill walk of uniform length in [λ,2λ-1] from v must land like a
	// true random walk of that length. Marginalize: compare empirical
	// endpoints against the average of the exact distributions over
	// lengths λ..2λ-1.
	g, err := graph.Candy(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	const (
		owner  = graph.NodeID(5)
		lambda = 4
		batch  = 6000
	)
	w := newWalker(t, g, 11, DefaultParams())
	if _, err := w.getMoreWalks(owner, batch*lambda, lambda); err != nil {
		t.Fatal(err)
	}
	exact := make([]float64, g.N())
	for l := lambda; l < 2*lambda; l++ {
		d, err := dist.WalkDist(g, owner, l)
		if err != nil {
			t.Fatal(err)
		}
		for v := range exact {
			exact[v] += d[v] / float64(lambda)
		}
	}
	counts := make([]int, g.N())
	for v := range w.st.coupons {
		counts[v] = len(w.st.localCoupons(graph.NodeID(v), owner))
	}
	var obs []int
	var exp []float64
	for v := range counts {
		if exact[v] < 1e-12 {
			if counts[v] > 0 {
				t.Fatalf("impossible refill endpoint %d", v)
			}
			continue
		}
		obs = append(obs, counts[v])
		exp = append(exp, exact[v])
	}
	sum := 0.0
	for _, e := range exp {
		sum += e
	}
	for i := range exp {
		exp[i] /= sum
	}
	stat, df, err := stats.ChiSquare(obs, exp)
	if err != nil {
		t.Fatal(err)
	}
	p, err := stats.ChiSquarePValue(stat, df)
	if err != nil {
		t.Fatal(err)
	}
	if p < 1e-4 {
		t.Fatalf("refill endpoints off: obs=%v exp=%v p=%v", obs, exp, p)
	}
}
