package core

import (
	"math"
	"slices"
	"testing"

	"distwalk/internal/dist"
	"distwalk/internal/graph"
	"distwalk/internal/rng"
)

func mhParams(lambda int) Params {
	return Params{Lambda: lambda, LambdaC: 1, Eta: 1, Metropolis: true}
}

func TestMHStepStationaryIsUniform(t *testing.T) {
	// The MH chain with uniform target must have the uniform distribution
	// as a fixed point even on very irregular graphs.
	g, err := graph.Star(8)
	if err != nil {
		t.Fatal(err)
	}
	u := dist.Uniform(g.N())
	next, err := dist.MHStep(g, u)
	if err != nil {
		t.Fatal(err)
	}
	if d := u.L1(next); d > 1e-12 {
		t.Fatalf("uniform moved by %v under MH step", d)
	}
}

func TestMHWalkDistMassPreserved(t *testing.T) {
	g, err := graph.Candy(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	p, err := dist.MHWalkDist(g, 0, 25)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.Sum()-1) > 1e-9 {
		t.Fatalf("mass = %v", p.Sum())
	}
	if _, err := dist.MHWalkDist(g, 0, -1); err == nil {
		t.Fatal("negative length accepted")
	}
}

func TestMHNaiveWalkDistribution(t *testing.T) {
	// The distributed naive MH walk must match the exact MH distribution.
	g, err := graph.Candy(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	const (
		source  = graph.NodeID(0)
		ell     = 6
		samples = 3000
	)
	exact, err := dist.MHWalkDist(g, source, ell)
	if err != nil {
		t.Fatal(err)
	}
	prm := DefaultParams()
	prm.Metropolis = true
	w := newWalker(t, g, 41, prm)
	counts := make([]int, g.N())
	for i := 0; i < samples; i++ {
		res, err := w.NaiveWalk(source, ell)
		if err != nil {
			t.Fatal(err)
		}
		counts[res.Destination]++
	}
	checkDistribution(t, counts, exact)
}

func TestMHStitchedWalkDistribution(t *testing.T) {
	// The full stitched machinery (Phase 1 + SAMPLE-DESTINATION + refills
	// + tail) with Metropolis steps must sample the exact MH ℓ-step
	// distribution — the Las Vegas property carries over.
	g, err := graph.Candy(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	const (
		source  = graph.NodeID(5)
		ell     = 30
		samples = 3000
	)
	exact, err := dist.MHWalkDist(g, source, ell)
	if err != nil {
		t.Fatal(err)
	}
	w := newWalker(t, g, 43, mhParams(3))
	counts := make([]int, g.N())
	stitched := 0
	for i := 0; i < samples; i++ {
		res, err := w.SingleRandomWalk(source, ell)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Naive {
			stitched++
		}
		counts[res.Destination]++
	}
	if stitched == 0 {
		t.Fatal("no walk engaged stitching")
	}
	checkDistribution(t, counts, exact)
}

func TestMHWalkConvergesToUniform(t *testing.T) {
	// On the star — where the simple walk concentrates half its mass on
	// the hub — the MH walk's endpoints must become uniform.
	g, err := graph.Star(9)
	if err != nil {
		t.Fatal(err)
	}
	const (
		ell     = 60
		samples = 4500
	)
	prm := DefaultParams()
	prm.Metropolis = true
	w := newWalker(t, g, 47, prm)
	counts := make([]int, g.N())
	for i := 0; i < samples; i++ {
		res, err := w.SingleRandomWalk(1, ell)
		if err != nil {
			t.Fatal(err)
		}
		counts[res.Destination]++
	}
	// Compare against exact (which is ~uniform at this ℓ).
	exact, err := dist.MHWalkDist(g, 1, ell)
	if err != nil {
		t.Fatal(err)
	}
	checkDistribution(t, counts, exact)
	// And confirm the exact distribution itself is near uniform.
	if d := exact.TV(dist.Uniform(g.N())); d > 0.02 {
		t.Fatalf("MH walk not near uniform at ℓ=%d: TV=%v", ell, d)
	}
}

func TestMHManyWalks(t *testing.T) {
	g, err := graph.Torus(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	prm := DefaultParams()
	prm.Metropolis = true
	w := newWalker(t, g, 51, prm)
	res, err := w.ManyRandomWalks([]graph.NodeID{0, 3, 7}, 200)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range res.Destinations {
		if d < 0 || int(d) >= g.N() {
			t.Fatalf("walk %d bad destination %d", i, d)
		}
	}
}

func TestMHStaysAreFree(t *testing.T) {
	// On a star, the MH walk from the hub stays put with high probability
	// each step (acceptance 1/(n-1)); since stays send no messages, a long
	// walk must cost far fewer rounds than its length.
	g, err := graph.Star(32)
	if err != nil {
		t.Fatal(err)
	}
	prm := DefaultParams()
	prm.Metropolis = true
	w := newWalker(t, g, 53, prm)
	const ell = 4000
	res, err := w.NaiveWalk(0, ell)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost.Rounds > ell/2 {
		t.Fatalf("MH walk with mostly-stay steps cost %d rounds for ℓ=%d", res.Cost.Rounds, ell)
	}
}

// TestMHRegenerate replays a stitched Metropolis-Hastings walk: every
// position is recorded, consecutive positions are a stay or an edge, the
// stays are replayed, and a second replay returns the same trace.
func TestMHRegenerate(t *testing.T) {
	g, err := graph.Candy(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	w := newWalker(t, g, 57, mhParams(4))
	res, err := w.SingleRandomWalk(7, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Segments) < 2 {
		t.Fatalf("walk did not stitch: %d segments", len(res.Segments))
	}
	tr, err := w.Regenerate(res)
	if err != nil {
		t.Fatalf("MH regeneration: %v", err)
	}
	if tr.Path[0] != res.Source || tr.Path[res.Length] != res.Destination {
		t.Fatalf("path runs %d→%d, walk %d→%d", tr.Path[0], tr.Path[res.Length], res.Source, res.Destination)
	}
	stays := 0
	for i := 1; i < len(tr.Path); i++ {
		u, v := tr.Path[i-1], tr.Path[i]
		switch {
		case u == v:
			stays++
		case !g.HasEdge(u, v):
			t.Fatalf("positions %d→%d jump %d→%d off the graph", i-1, i, u, v)
		}
	}
	if stays == 0 {
		t.Fatal("no stay replayed")
	}
	again, err := w.Regenerate(res)
	if err != nil || !slices.Equal(again.Path, tr.Path) {
		t.Fatalf("second replay differs (%v)", err)
	}
}

// TestMHRegeneratedPathLaw χ²-tests regenerated Metropolis-Hastings
// paths position by position: Path[t] of stitched walks (refills, stays
// and tails included) must follow the exact t-step MH law from the
// source, not only the endpoint.
func TestMHRegeneratedPathLaw(t *testing.T) {
	g, err := graph.Candy(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	const (
		source  = graph.NodeID(7)
		ell     = 40
		samples = 2000
		batch   = 50
	)
	positions := []int{1, 3, 9, 20, 33, ell}
	counts := make([][]int, len(positions))
	for i := range counts {
		counts[i] = make([]int, g.N())
	}
	w := newWalker(t, g, 67, mhParams(4))
	stitched, refills := 0, 0
	for done := 0; done < samples; done += batch {
		walks := make([]*WalkResult, batch)
		for i := range walks {
			res, err := w.SingleRandomWalk(source, ell)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Segments) > 1 {
				stitched++
			}
			refills += res.Refills
			walks[i] = res
		}
		traces, err := w.RegenerateMany(walks)
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range traces {
			for i, pos := range positions {
				counts[i][tr.Path[pos]]++
			}
		}
	}
	t.Logf("%d walks, %d stitched, %d refills", samples, stitched, refills)
	if stitched == 0 || refills == 0 {
		t.Fatal("the walks must stitch and refill")
	}
	for i, pos := range positions {
		exact, err := dist.MHWalkDist(g, source, pos)
		if err != nil {
			t.Fatal(err)
		}
		checkDistribution(t, counts[i], exact)
	}
}

func TestMHDeterministic(t *testing.T) {
	g, err := graph.Candy(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	run := func() graph.NodeID {
		w := newWalker(t, g, 61, mhParams(4))
		res, err := w.SingleRandomWalk(0, 100)
		if err != nil {
			t.Fatal(err)
		}
		return res.Destination
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("MH walks diverged: %d vs %d", a, b)
	}
}

func TestGraphMHStepAcceptance(t *testing.T) {
	// Uniform-target MH on a star, drawn from keys as the walks draw it
	// (graph.MHPortAt): the hub (W=15) always accepts a move to a leaf
	// (min(1, 15/1) = 1); a leaf accepts its only proposal (the hub) with
	// probability min(1, 1/15) and otherwise stays (port −1) — that
	// stickiness is exactly what flattens the stationary distribution.
	g, err := graph.Star(16)
	if err != nil {
		t.Fatal(err)
	}
	key := func(i int) uint64 { return rng.Mix64(12345 ^ uint64(i)) }
	for i := 0; i < 200; i++ {
		if port := g.MHPortAt(0, key(i)); port < 0 {
			t.Fatal("hub stayed despite acceptance 1")
		}
	}
	stays := 0
	const draws = 3000
	for i := 0; i < draws; i++ {
		switch port := g.MHPortAt(3, key(i)); port {
		case -1:
			stays++
		case 0:
			// moved to the hub, fine
		default:
			t.Fatalf("leaf stepped by port %d, it has one", port)
		}
	}
	frac := float64(stays) / draws
	if math.Abs(frac-14.0/15) > 0.03 {
		t.Fatalf("leaf stay fraction %v, want ≈ %v", frac, 14.0/15)
	}
}
