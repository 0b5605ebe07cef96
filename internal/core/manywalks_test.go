package core

import (
	"fmt"
	"slices"
	"testing"

	"distwalk/internal/dist"
	"distwalk/internal/graph"
	"distwalk/internal/stats"
)

func TestManyRandomWalksBasic(t *testing.T) {
	g, err := graph.Torus(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	w := newWalker(t, g, 3, DefaultParams())
	sources := []graph.NodeID{0, 5, 11, 0}
	res, err := w.ManyRandomWalks(sources, 500)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Destinations) != len(sources) || len(res.Walks) != len(sources) {
		t.Fatalf("result sizes: %d dests, %d walks", len(res.Destinations), len(res.Walks))
	}
	for i, wres := range res.Walks {
		if wres.Source != sources[i] {
			t.Fatalf("walk %d source %d, want %d", i, wres.Source, sources[i])
		}
		total := 0
		for _, s := range wres.Segments {
			total += s.Length
		}
		if total != 500 {
			t.Fatalf("walk %d sums to %d", i, total)
		}
		if wres.Destination != res.Destinations[i] {
			t.Fatal("destination mismatch between Walks and Destinations")
		}
	}
}

func TestManyRandomWalksValidation(t *testing.T) {
	g, _ := graph.Torus(3, 3)
	w := newWalker(t, g, 1, DefaultParams())
	if _, err := w.ManyRandomWalks(nil, 10); err == nil {
		t.Fatal("empty sources accepted")
	}
	if _, err := w.ManyRandomWalks([]graph.NodeID{77}, 10); err == nil {
		t.Fatal("bad source accepted")
	}
	if _, err := w.ManyRandomWalks([]graph.NodeID{0}, -2); err == nil {
		t.Fatal("negative length accepted")
	}
}

func TestManyRandomWalksZeroLength(t *testing.T) {
	g, _ := graph.Torus(3, 3)
	w := newWalker(t, g, 1, DefaultParams())
	res, err := w.ManyRandomWalks([]graph.NodeID{2, 4}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Destinations[0] != 2 || res.Destinations[1] != 4 {
		t.Fatalf("zero-length walks moved: %v", res.Destinations)
	}
}

func TestManyRandomWalksNaiveFallback(t *testing.T) {
	// Large k with tiny ℓ forces λ > ℓ: the k+ℓ regime.
	g, err := graph.Torus(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	w := newWalker(t, g, 7, DefaultParams())
	sources := make([]graph.NodeID, 40)
	for i := range sources {
		sources[i] = graph.NodeID(i % g.N())
	}
	res, err := w.ManyRandomWalks(sources, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !res.NaiveFallback {
		t.Fatal("expected naive fallback for k=40, ℓ=5")
	}
	// Õ(k+ℓ): must be far below k·ℓ (sequential naive).
	if res.Cost.Rounds > 4*(len(sources)+5)+4*5 {
		t.Fatalf("naive-many cost %d rounds, want O(k+ℓ)", res.Cost.Rounds)
	}
	for i, d := range res.Destinations {
		if d < 0 || int(d) >= g.N() {
			t.Fatalf("walk %d has bad destination %d", i, d)
		}
	}
}

func TestManyRandomWalksEndpointDistribution(t *testing.T) {
	// k walks from the same source must each follow the exact ℓ-step
	// distribution.
	g, err := graph.Candy(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	const (
		source = graph.NodeID(5)
		ell    = 20
		k      = 20
		trials = 150
	)
	exact, err := dist.WalkDist(g, source, ell)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, g.N())
	for trial := 0; trial < trials; trial++ {
		w := newWalker(t, g, uint64(1000+trial), Params{Lambda: 4, LambdaC: 1, Eta: 1})
		sources := make([]graph.NodeID, k)
		for i := range sources {
			sources[i] = source
		}
		res, err := w.ManyRandomWalks(sources, ell)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range res.Destinations {
			counts[d]++
		}
	}
	var obs []int
	var exp []float64
	for v, p := range exact {
		if p < 1e-12 {
			continue
		}
		obs = append(obs, counts[v])
		exp = append(exp, p)
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
		t.Fatalf("many-walk endpoints off: p=%v obs=%v", p, obs)
	}
}

func TestManyWalksScaleSublinearlyInK(t *testing.T) {
	// Theorem 2.8: √(kℓD)+k grows much slower than k·√(ℓD).
	g, err := graph.Torus(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	const ell = 3000
	run := func(k int) int {
		w := newWalker(t, g, 99, DefaultParams())
		sources := make([]graph.NodeID, k)
		res, err := w.ManyRandomWalks(sources, ell)
		if err != nil {
			t.Fatal(err)
		}
		return res.Cost.Rounds
	}
	r1 := run(1)
	r16 := run(16)
	if r16 > 10*r1 {
		t.Fatalf("16 walks cost %d rounds vs %d for one — not sublinear in k", r16, r1)
	}
}

func TestManyWalksDeterministic(t *testing.T) {
	g, err := graph.Torus(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	run := func() []graph.NodeID {
		w := newWalker(t, g, 1234, DefaultParams())
		res, err := w.ManyRandomWalks([]graph.NodeID{1, 2, 3}, 300)
		if err != nil {
			t.Fatal(err)
		}
		return res.Destinations
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("walk %d diverged: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestNotifyFloodsOnlyForeignReports pins the notification's exact cost
// on the naive k-walk path: k·ℓ token hops, one upcast hop per tree level
// of each destination, and n−1 tree edges for each report the root floods,
// which is one per walk whose source is not the root.
func TestNotifyFloodsOnlyForeignReports(t *testing.T) {
	g, err := graph.Torus(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	const k, ell = 12, 8
	for _, c := range []struct {
		name      string
		source    func(i int) graph.NodeID
		maxRounds int // the cost when every report was flooded
	}{
		{"all at root", func(int) graph.NodeID { return 0 }, 39},
		{"spread", func(i int) graph.NodeID { return graph.NodeID(i * 5 % 64) }, 36},
	} {
		t.Run(c.name, func(t *testing.T) {
			w := newWalker(t, g, 3, DefaultParams())
			if _, err := w.Prepare(0); err != nil {
				t.Fatal(err)
			}
			sources := make([]graph.NodeID, k)
			for i := range sources {
				sources[i] = c.source(i)
			}
			res, err := w.ManyRandomWalks(sources, ell)
			if err != nil {
				t.Fatal(err)
			}
			if !res.NaiveFallback {
				t.Fatal("k=12, ℓ=8 did not take the naive path")
			}
			want := int64(k * ell)
			for i, d := range res.Destinations {
				want += int64(w.Tree().Depth[d])
				if sources[i] != w.Tree().Root {
					want += int64(g.N() - 1)
				}
			}
			t.Logf("%d rounds, %d messages", res.Cost.Rounds, res.Cost.Messages)
			if res.Cost.Messages != want {
				t.Errorf("%d messages, want %d", res.Cost.Messages, want)
			}
			if res.Cost.Rounds > c.maxRounds {
				t.Errorf("%d rounds, want at most %d", res.Cost.Rounds, c.maxRounds)
			}
		})
	}
}

// TestNaiveManyAllocs gates the naive k-walk path's allocations on a warm
// walker: the results and their segments come from a fixed number of
// slabs, not one allocation per walk, and the destination reports from
// the walker's list. What k = 96 adds is the engine's: each call walks
// fresh walk IDs, and now and then its tokens crowd a node's inbox more
// than any call before (congest's mergeIn grows it).
func TestNaiveManyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	g, err := graph.Torus(16, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		k     int
		bound float64
	}{{8, 5}, {96, 8}} {
		w := newWalker(t, g, 5, DefaultParams())
		sources := make([]graph.NodeID, c.k)
		for i := range sources {
			sources[i] = graph.NodeID(i * 7 % g.N())
		}
		res, err := w.ManyRandomWalks(sources, 8)
		if err != nil {
			t.Fatal(err)
		}
		if !res.NaiveFallback {
			t.Fatalf("k=%d, ℓ=8 did not take the naive path", c.k)
		}
		var runErr error
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := w.ManyRandomWalks(sources, 8); err != nil {
				runErr = err
			}
		})
		if runErr != nil {
			t.Fatal(runErr)
		}
		t.Logf("k=%d: %.0f allocs per ManyRandomWalks", c.k, allocs)
		if allocs > c.bound {
			t.Errorf("k=%d: %.0f allocs per ManyRandomWalks, want at most %.0f", c.k, allocs, c.bound)
		}
	}
}

// TestManyWalksAllocs gates a stitched batch's allocations on a warm
// walker, reseeded and reset per request as a Service worker is: 8 walks
// of ℓ = 1 024 on Torus(16,16), the cluster-walks request. Phase 1, the
// refills and the tails run as one walk-token protocol value the walker
// keeps, and the request and report lists are the walker's, so what is
// left is the result (the ManyResult, its Destinations, Walks and
// WalkResults) and one slab of segment lists.
func TestManyWalksAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	g, err := graph.Torus(16, 16)
	if err != nil {
		t.Fatal(err)
	}
	prm := DefaultParams()
	w := newWalker(t, g, 1, prm)
	sources := make([]graph.NodeID, 8)
	for i := range sources {
		sources[i] = graph.NodeID(i * 37 % g.N())
	}
	key := uint64(0)
	var runErr error
	request := func() {
		key++
		w.Network().Reseed(key)
		if err := w.Reset(prm); err != nil {
			runErr = err
			return
		}
		res, err := w.ManyRandomWalks(sources, 1024)
		if err != nil {
			runErr = err
			return
		}
		if res.NaiveFallback {
			runErr = fmt.Errorf("k=8, ℓ=1024 took the naive path")
		}
	}
	request() // warm the slabs
	allocs := testing.AllocsPerRun(10, request)
	if runErr != nil {
		t.Fatal(runErr)
	}
	t.Logf("%.0f allocs per request", allocs)
	if allocs > 5 {
		t.Errorf("%.0f allocs per request, want at most %d", allocs, 5)
	}
}

// TestManyWalksNoStitchIsNaiveKWalk holds MANY-RANDOM-WALKS to the one
// fallback rule SINGLE-RANDOM-WALK keeps: when 2λ > ℓ no walk can stitch,
// so the k walks are the naive k-walk (Theorem 2.8's k+ℓ term) with no
// Phase 1, bit for bit the run that Lambda = ℓ+1 forces. A cell with
// 2λ ≤ ℓ still stitches.
func TestManyWalksNoStitchIsNaiveKWalk(t *testing.T) {
	run := func(g *graph.G, prm Params, k, ell int) (*ManyResult, *Walker) {
		t.Helper()
		sources := make([]graph.NodeID, k)
		for i := range sources {
			sources[i] = graph.NodeID(i * 37 % g.N())
		}
		w := newWalker(t, g, 1, prm)
		res, err := w.ManyRandomWalks(sources, ell)
		if err != nil {
			t.Fatal(err)
		}
		return res, w
	}
	for _, tc := range []struct {
		side, k, ell int
		stitch       bool
	}{
		{16, 16, 1024, false},
		{16, 32, 1024, false},
		{48, 16, 1024, false},
		{16, 4, 4096, true},
	} {
		g, err := graph.Torus(tc.side, tc.side)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("Torus(%d,%d) k=%d ℓ=%d", tc.side, tc.side, tc.k, tc.ell)
		got, w := run(g, DefaultParams(), tc.k, tc.ell)
		lam := DefaultParams().lambdaMany(tc.k, tc.ell, max(w.tree.Height, 1), g.N())
		t.Logf("%s: λ=%d, %d rounds, %d messages, fallback %v", name, lam, got.Cost.Rounds, got.Cost.Messages, got.NaiveFallback)
		if tc.stitch {
			if 2*lam > tc.ell || got.NaiveFallback || got.Lambda != lam {
				t.Errorf("%s: λ=%d, fallback %v, Lambda %d; want a stitched run at λ", name, lam, got.NaiveFallback, got.Lambda)
			}
			continue
		}
		if 2*lam <= tc.ell || lam > tc.ell {
			t.Fatalf("%s: λ=%d is not in ℓ/2 < λ ≤ ℓ", name, lam)
		}
		want, _ := run(g, Params{Lambda: tc.ell + 1, LambdaC: 1, Eta: 1}, tc.k, tc.ell)
		if !got.NaiveFallback || got.Lambda != 0 {
			t.Errorf("%s: fallback %v, Lambda %d; want the naive k-walk (fallback, Lambda 0)", name, got.NaiveFallback, got.Lambda)
		}
		if got.Cost != want.Cost {
			t.Errorf("%s: cost %+v, naive k-walk %+v", name, got.Cost, want.Cost)
		}
		if !slices.Equal(got.Destinations, want.Destinations) {
			t.Errorf("%s: destinations differ from the naive k-walk's", name)
		}
	}
}
