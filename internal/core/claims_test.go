package core

import (
	"fmt"
	"math"
	"testing"

	"distwalk/internal/graph"
	"distwalk/internal/stats"
)

// The paper's quantitative claims about SINGLE-RANDOM-WALK, held as
// seeded assertions (README "Claims" is the index). Every window below
// brackets what eight seeds produced with room to spare; the seeds are
// fixed, so a failure is a change in behaviour, not noise.

const claimSeed = 42

func stitchedWalk(t *testing.T, g *graph.G, seed uint64, prm Params, src graph.NodeID, ell int) *WalkResult {
	t.Helper()
	res, err := newWalker(t, g, seed, prm).SingleRandomWalk(src, ell)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func naiveRounds(t *testing.T, g *graph.G, seed uint64, ell int) float64 {
	t.Helper()
	res, err := newWalker(t, g, seed, DefaultParams()).NaiveWalk(0, ell)
	if err != nil {
		t.Fatal(err)
	}
	return float64(res.Cost.Rounds)
}

func exponent(t *testing.T, xs, ys []float64) float64 {
	t.Helper()
	s, err := stats.LogLogSlope(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// Theorem 2.5 in ℓ: Õ(√(ℓD)) rounds against DNP09's Õ(ℓ^{2/3}D^{1/3}) and
// the naive O(ℓ), as fitted growth exponents on a torus. The fast walk
// must also keep at least half of the theoretical 2/3 − 1/2 gap to DNP09:
// the windows alone would let its exponent drift to 0.6.
func TestClaimThm25RoundsInEll(t *testing.T) {
	g, err := graph.Torus(16, 16)
	if err != nil {
		t.Fatal(err)
	}
	diam, err := g.Diameter()
	if err != nil {
		t.Fatal(err)
	}
	var ells, fast, dnp, naive []float64
	for i, ell := 0, 1024; ell <= 16384; i, ell = i+1, ell*2 {
		seed := claimSeed + uint64(i)
		f := float64(stitchedWalk(t, g, seed, DefaultParams(), 0, ell).Cost.Rounds)
		n := naiveRounds(t, g, seed, ell)
		if ell >= 2048 && f >= n {
			t.Errorf("ℓ=%d: fast walk %v rounds, naive %v", ell, f, n)
		}
		ells = append(ells, float64(ell))
		fast = append(fast, f)
		dnp = append(dnp, float64(stitchedWalk(t, g, seed, DNP09Params(ell, diam), 0, ell).Cost.Rounds))
		naive = append(naive, n)
	}
	sf, sd, sn := exponent(t, ells, fast), exponent(t, ells, dnp), exponent(t, ells, naive)
	t.Logf("rounds at ℓ=%v: fast %v, dnp09 %v, naive %v; exponents %.3f / %.3f / %.3f", ells, fast, dnp, naive, sf, sd, sn)
	if sf < 0.40 || sf > 0.60 || sd < 0.58 || sd > 0.72 || sn < 0.95 || sn > 1.05 || sd-sf < 1.0/12 {
		t.Fatalf("growth exponents fast=%.3f dnp09=%.3f naive=%.3f, want ≈0.5 < ≈0.67 < ≈1.0", sf, sd, sn)
	}
}

// Theorem 2.5 in D: at fixed ℓ rounds grow like √D on candy graphs
// (D = tail+1), while the naive walk does not notice D.
func TestClaimThm25RoundsInD(t *testing.T) {
	const ell = 8192
	var ds, fast []float64
	lo, hi := math.Inf(1), 0.0
	for _, tail := range []int{8, 16, 32, 64, 128} {
		g, err := graph.Candy(12, tail)
		if err != nil {
			t.Fatal(err)
		}
		ds = append(ds, float64(tail+1))
		fast = append(fast, float64(stitchedWalk(t, g, claimSeed, DefaultParams(), 0, ell).Cost.Rounds))
		n := naiveRounds(t, g, claimSeed, ell)
		lo, hi = math.Min(lo, n), math.Max(hi, n)
	}
	s := exponent(t, ds, fast)
	t.Logf("rounds at D=%v: fast %v, naive in [%v, %v]; exponent in D %.3f", ds, fast, lo, hi, s)
	if s < 0.35 || s > 0.65 {
		t.Fatalf("growth exponent in D = %.3f, want ≈0.5", s)
	}
	if hi > 1.05*lo {
		t.Fatalf("naive rounds range over [%v, %v] across the D sweep, want D-insensitive", lo, hi)
	}
}

// connectorCounts returns how often each node starts a stitched segment.
func connectorCounts(res *WalkResult) map[graph.NodeID]int {
	c := make(map[graph.NodeID]int)
	for _, s := range res.Segments {
		c[s.Start]++
	}
	return c
}

// Lemma 2.7: a node visited t times is a connector at most t·log²n/λ
// times. λ = 64 sits above log²n = 49, so the bound is stricter than the
// trivial "every connector appearance is a visit" and short walks that
// come out shorter than the declared λ break it; ℓ = 16384 laps the cycle
// often enough that no node is seen only once or twice.
func TestClaimLemma27ConnectorBound(t *testing.T) {
	const ell, lambda = 16384, 64
	g, err := graph.Cycle(128)
	if err != nil {
		t.Fatal(err)
	}
	logSq := math.Pow(math.Log2(float64(g.N())), 2)
	worst, where := 0.0, ""
	for seed := uint64(claimSeed); seed < claimSeed+5; seed++ {
		w := newWalker(t, g, seed, Params{Lambda: lambda, LambdaC: 1, Eta: 6})
		res, err := w.SingleRandomWalk(0, ell)
		if err != nil {
			t.Fatal(err)
		}
		trace, err := w.Regenerate(res)
		if err != nil {
			t.Fatal(err)
		}
		visitCount := make(map[graph.NodeID]int)
		for _, v := range trace.Path {
			visitCount[v]++
		}
		for v, c := range connectorCounts(res) {
			visits := visitCount[v]
			if ratio := float64(c*lambda) / (float64(visits) * logSq); ratio > worst {
				worst = ratio
				where = fmt.Sprintf("seed %d: node %d is a connector %d times in %d visits", seed, v, c, visits)
			}
		}
	}
	t.Logf("max_y connectors(y)·λ/(visits(y)·log²n) = %.3f (%s)", worst, where)
	if worst >= 1 {
		t.Fatalf("%s: %.2f × the t·log²n/λ bound", where, worst)
	}
}

// Lemma 2.7's ablation: on a cycle, fixed-length short walks place
// connectors periodically, so the same few nodes recur, drain their
// coupons and call GET-MORE-WALKS; lengths drawn from [λ, 2λ−1] spread
// the connectors out.
func TestClaimLemma27FixedLengthAblation(t *testing.T) {
	g, err := graph.Cycle(64)
	if err != nil {
		t.Fatal(err)
	}
	var refills, share [2]float64 // [random, fixed]
	for i, fixed := range []bool{false, true} {
		distinct, stitches := 0, 0
		for seed := uint64(claimSeed); seed < claimSeed+5; seed++ {
			prm := Params{Lambda: 32, LambdaC: 1, Eta: 1, FixedLength: fixed}
			res := stitchedWalk(t, g, seed, prm, 0, 4096)
			refills[i] += float64(res.Refills)
			distinct += len(connectorCounts(res))
			stitches += len(res.Segments)
		}
		share[i] = float64(distinct) / float64(stitches)
	}
	t.Logf("refills over 5 walks: random %v, fixed %v; distinct-connector share %.3f vs %.3f", refills[0], refills[1], share[0], share[1])
	if refills[1] < 1.3*refills[0] || share[1] >= share[0] {
		t.Fatalf("fixed lengths: %v refills, distinct-connector share %.2f; random: %v, %.2f — want fixed ≥ 1.3× the refills and a smaller share",
			refills[1], share[1], refills[0], share[0])
	}
}

// Lemma 2.6's ablation: Phase 1 prepares η·deg(v) walks per node because
// the visit bound scales with d(y). With η per node regardless of degree
// the hub of a star runs dry and refills. A walk refills about once, and
// uniform counts refill about 2.5 times as often as η·deg(v); over twenty
// seeds that ratio spread from 1.8 to 4.4 across fifteen disjoint seed
// windows, so the sums run over 200.
func TestClaimLemma26UniformCountsAblation(t *testing.T) {
	g, err := graph.Star(64)
	if err != nil {
		t.Fatal(err)
	}
	const seeds = 200
	var refills, rounds [2]int // [degree-proportional, uniform]
	for i, uniform := range []bool{false, true} {
		for seed := uint64(claimSeed); seed < claimSeed+seeds; seed++ {
			prm := DefaultParams()
			prm.UniformCounts = uniform
			res := stitchedWalk(t, g, seed, prm, 1, 2048) // from a leaf
			refills[i] += res.Refills
			rounds[i] += res.Cost.Rounds
		}
	}
	t.Logf("over %d walks: η·deg(v) %d refills / %d rounds, uniform %d / %d", seeds, refills[0], rounds[0], refills[1], rounds[1])
	if refills[1] <= refills[0] || rounds[1] < rounds[0] {
		t.Fatalf("uniform counts: %d refills, %d rounds; η·deg(v): %d, %d — want uniform to refill more and run no faster",
			refills[1], rounds[1], refills[0], rounds[0])
	}
	if refills[1] < 2*refills[0] {
		t.Fatalf("uniform counts: %d refills; η·deg(v): %d — want at least twice as many", refills[1], refills[0])
	}
}

// roundRatio is the paper's walk's rounds over the naive walk's at ℓ
// from node 0, each summed over three seeds.
func roundRatio(t *testing.T, g *graph.G, ell int) float64 {
	t.Helper()
	var fast, naive float64
	for seed := uint64(claimSeed); seed < claimSeed+3; seed++ {
		fast += float64(stitchedWalk(t, g, seed, DefaultParams(), 0, ell).Cost.Rounds)
		naive += naiveRounds(t, g, seed, ell)
	}
	return fast / naive
}

// crossover returns ℓ*, the first walk length at which the paper's walk
// takes fewer rounds than the naive walk (ratio(ℓ) < 1): doubling from
// 64, then bisecting the last doubling step down to a sixteenth of ℓ*.
func crossover(t *testing.T, g *graph.G, ratio func(ell int) float64) int {
	t.Helper()
	const maxEll = 1 << 14
	hi := 64
	for ratio(hi) >= 1 {
		if hi *= 2; hi > maxEll {
			t.Fatalf("%d-node graph: the paper's walk never beats the naive walk up to ℓ=%d", g.N(), maxEll)
		}
	}
	for lo := hi / 2; hi-lo > hi/16; {
		if mid := (lo + hi) / 2; ratio(mid) < 1 {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// Where the paper's walk pays: it beats the naive O(ℓ) walk only once
// √(ℓD)·polylog < ℓ, so the crossover ℓ* grows with D — about 32–44·D on
// paths and tori — and past it the advantage opens up. Nothing is held
// beyond 8ℓ*: once ℓ ≫ n² the walk refills and the ratio climbs back.
func TestClaimCrossoverGrowsWithD(t *testing.T) {
	for _, family := range []struct {
		name  string
		sizes []int
		build func(int) (*graph.G, error)
	}{
		{"path", []int{32, 64, 128}, graph.Path},
		{"torus", []int{8, 16, 32}, func(k int) (*graph.G, error) { return graph.Torus(k, k) }},
	} {
		prev := 0
		for _, size := range family.sizes {
			g, err := family.build(size)
			if err != nil {
				t.Fatal(err)
			}
			diam, err := g.Diameter()
			if err != nil {
				t.Fatal(err)
			}
			star := crossover(t, g, func(ell int) float64 { return roundRatio(t, g, ell) })
			perD, past := float64(star)/float64(diam), roundRatio(t, g, 8*star)
			t.Logf("%s %d (D=%d): ℓ*=%d, ℓ*/D=%.1f, rounds ÷ naive at 8ℓ* %.3f", family.name, size, diam, star, perD, past)
			if star <= prev {
				t.Errorf("%s %d (D=%d): ℓ*=%d, not above the smaller-D graph's %d", family.name, size, diam, star, prev)
			}
			if perD < 24 || perD > 64 {
				t.Errorf("%s %d (D=%d): ℓ*/D = %.1f, want within [24, 64]", family.name, size, diam, perD)
			}
			if past > 0.5 {
				t.Errorf("%s %d (D=%d): rounds ÷ naive at 8ℓ* = %.3f, want ≤ 0.5", family.name, size, diam, past)
			}
			prev = star
		}
	}
}

// manyRounds is the rounds of k walks of length ℓ (MANY-RANDOM-WALKS from
// sources i·37 mod n) under prm, summed over three seeds, and whether
// any of them fell back to the naive k-walk.
func manyRounds(t *testing.T, g *graph.G, prm Params, k, ell int) (rounds float64, naive bool) {
	t.Helper()
	sources := make([]graph.NodeID, k)
	for i := range sources {
		sources[i] = graph.NodeID(i * 37 % g.N())
	}
	for seed := uint64(claimSeed); seed < claimSeed+3; seed++ {
		res, err := newWalker(t, g, seed, prm).ManyRandomWalks(sources, ell)
		if err != nil {
			t.Fatal(err)
		}
		rounds += float64(res.Cost.Rounds)
		naive = naive || res.NaiveFallback
	}
	return rounds, naive
}

// manyRatio is the stitched k walks' rounds over the naive k-walk's, which
// Lambda = ℓ+1 forces (λ > ℓ falls back).
func manyRatio(t *testing.T, g *graph.G, k, ell int) float64 {
	t.Helper()
	fast, _ := manyRounds(t, g, DefaultParams(), k, ell)
	naive, _ := manyRounds(t, g, Params{Lambda: ell + 1, LambdaC: 1, Eta: 1}, k, ell)
	return fast / naive
}

// Theorem 2.8: k walks take Õ(min(√(kℓD)+k, k+ℓ)) rounds. At fixed ℓ the
// stitched walks' rounds grow like √k until λ = Θ(√(kℓD)+k) passes ℓ and
// the k walks run as naive tokens. The naive k-walk costs ≈ ℓ at every
// k, so the crossover against it moves like ℓ*(k) ≈ c²·k·D: k walks need
// k times the length before stitching pays.
func TestClaimThm28ManyWalksInK(t *testing.T) {
	g, err := graph.Torus(16, 16)
	if err != nil {
		t.Fatal(err)
	}
	const ell = 4096
	var ks, rounds []float64
	for k := 1; k <= 32; k *= 2 {
		r, naive := manyRounds(t, g, DefaultParams(), k, ell)
		if naive {
			break
		}
		ks, rounds = append(ks, float64(k)), append(rounds, r)
	}
	s := exponent(t, ks, rounds)
	t.Logf("Torus(16,16), ℓ=%d: rounds at k=%v: %v; exponent in k %.3f", ell, ks, rounds, s)
	if len(ks) < 5 || s < 0.3 || s > 0.65 {
		t.Errorf("growth exponent in k = %.3f over k=%v, want ≈0.5 over k = 1…16 at least", s, ks)
	}

	for _, size := range []int{8, 12} {
		g, err := graph.Torus(size, size)
		if err != nil {
			t.Fatal(err)
		}
		diam, err := g.Diameter()
		if err != nil {
			t.Fatal(err)
		}
		var ks, stars []float64
		for _, k := range []int{1, 4, 16} {
			star := crossover(t, g, func(ell int) float64 { return manyRatio(t, g, k, ell) })
			perKD := float64(star) / float64(k*diam)
			t.Logf("Torus(%d,%d) (D=%d), k=%d: ℓ*=%d, ℓ*/(kD)=%.1f", size, size, diam, k, star, perKD)
			if perKD < 24 || perKD > 64 {
				t.Errorf("Torus(%d,%d) (D=%d), k=%d: ℓ*/(kD) = %.1f, want within [24, 64]", size, size, diam, k, perKD)
			}
			if n := len(stars); n > 0 && float64(star) <= stars[n-1] {
				t.Errorf("Torus(%d,%d), k=%d: ℓ*=%d, not above k=%v's %v", size, size, k, star, ks[n-1], stars[n-1])
			}
			ks, stars = append(ks, float64(k)), append(stars, float64(star))
		}
		s := exponent(t, ks, stars)
		t.Logf("Torus(%d,%d): ℓ* grows like k^%.3f", size, size, s)
		if s < 0.75 || s > 1.25 {
			t.Errorf("Torus(%d,%d): ℓ* grows like k^%.3f, want about linearly", size, size, s)
		}
	}
}

// Section 2.2: regenerating a walk "takes time at most the time taken in
// Phase 1". RegenerateMany of k walks from one source must stay within
// 2·(Phase 1 rounds + D) on Torus(16,16), under the default parameters
// (no refill) and under UniformCounts with λ = 64, where every walk
// refills from GET-MORE-WALKS many times. Phase 1's rounds are those of
// the call's Phase 1 on a fresh walker of the seed: its draws are keyed by
// the seed and the walk IDs, so it repeats the walk's own bit for bit. At
// k = 16, ℓ = 1 024 the default λ passes ℓ/2 and the walks run as the
// naive k-walk, which is held to the Phase 1 it skipped.
func TestClaimRegenerationWithinPhase1(t *testing.T) {
	g, err := graph.Torus(16, 16)
	if err != nil {
		t.Fatal(err)
	}
	starved := DefaultParams()
	starved.UniformCounts, starved.Lambda = true, 64
	for _, kl := range []struct{ k, ell int }{{16, 1024}, {8, 2048}} {
		for _, prm := range []Params{DefaultParams(), starved} {
			sources := make([]graph.NodeID, kl.k)
			worst, refills := 0.0, 0
			for seed := uint64(1); seed <= 20; seed++ {
				w := newWalker(t, g, seed, prm)
				many, err := w.ManyRandomWalks(sources, kl.ell)
				if err != nil {
					t.Fatal(err)
				}
				traces, err := w.RegenerateMany(many.Walks)
				if err != nil {
					t.Fatal(err)
				}
				fresh := newWalker(t, g, seed, prm)
				if _, err := fresh.ensureTree(0); err != nil {
					t.Fatal(err)
				}
				lam := prm.lambdaMany(kl.k, kl.ell, w.Tree().Height, g.N())
				p1, err := phase1With(fresh, lam, map[graph.NodeID]int{0: kl.k})
				if err != nil {
					t.Fatal(err)
				}
				ratio := float64(traces[0].Cost.Rounds) / float64(p1.Rounds+w.Tree().Height)
				worst = max(worst, ratio)
				refills += many.Refills
			}
			t.Logf("k=%d ℓ=%d uniform=%v: %d refills over 20 seeds; worst regeneration ÷ (Phase 1 + D) %.2f",
				kl.k, kl.ell, prm.UniformCounts, refills, worst)
			if worst > 2 {
				t.Errorf("k=%d ℓ=%d uniform=%v: regeneration took %.2f× (Phase 1 + D) rounds, want ≤ 2", kl.k, kl.ell, prm.UniformCounts, worst)
			}
			if prm.UniformCounts && refills == 0 {
				t.Errorf("k=%d ℓ=%d: the starved inventory made no refill to regenerate", kl.k, kl.ell)
			}
		}
	}
}
