package core

import (
	"errors"
	"slices"
	"testing"

	"distwalk/internal/dist"
	"distwalk/internal/graph"
)

func TestBreakdownSumsToTotal(t *testing.T) {
	g, err := graph.Torus(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	w := newWalker(t, g, 3, DefaultParams())
	res, err := w.SingleRandomWalk(0, 3000)
	if err != nil {
		t.Fatal(err)
	}
	b := res.Breakdown
	sum := b.TreeBuild + b.Phase1 + b.Stitch + b.Refill + b.Tail + b.Report
	if sum != res.Cost.Rounds {
		t.Fatalf("breakdown sums to %d, total is %d (%+v)", sum, res.Cost.Rounds, b)
	}
	if b.TreeBuild == 0 || b.Phase1 == 0 || b.Stitch == 0 || b.Tail == 0 {
		t.Fatalf("expected all main stages to cost rounds: %+v", b)
	}
}

func TestPrepareBuildsTree(t *testing.T) {
	g, err := graph.Torus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	w := newWalker(t, g, 5, DefaultParams())
	if w.Tree() != nil {
		t.Fatal("tree exists before Prepare")
	}
	res, err := w.Prepare(3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds == 0 {
		t.Fatal("tree build cost no rounds")
	}
	if w.Tree() == nil || w.Tree().Root != 3 {
		t.Fatal("tree not rooted at 3")
	}
	// Idempotent for the same source.
	res, err = w.Prepare(3)
	if err != nil || res.Rounds != 0 {
		t.Fatalf("re-prepare cost %d rounds, err=%v", res.Rounds, err)
	}
	if _, err := w.Prepare(99); err == nil {
		t.Fatal("bad source accepted")
	}
}

func TestTheoryParamsDegradeGracefully(t *testing.T) {
	// The paper's constants make λ ≫ ℓ at this scale: the walk must fall
	// back to the naive token and still sample correctly.
	g, err := graph.Torus(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	prm := Params{Theory: true, Eta: 1}
	w := newWalker(t, g, 7, prm)
	res, err := w.SingleRandomWalk(0, 500)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Naive {
		t.Fatalf("theory constants should exceed ℓ=500 (λ=%d)", res.Lambda)
	}
	if res.Destination < 0 || int(res.Destination) >= g.N() {
		t.Fatalf("bad destination %d", res.Destination)
	}
}

func TestWalkOnMultigraph(t *testing.T) {
	// A doubled edge must be taken twice as often: compare against the
	// exact distribution, which accounts for multiplicity.
	g := graph.New(3)
	for i := 0; i < 2; i++ {
		if err := g.AddEdge(0, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AddEdge(0, 2); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	const (
		ell     = 5
		samples = 3000
	)
	exact, err := dist.WalkDist(g, 0, ell)
	if err != nil {
		t.Fatal(err)
	}
	w := newWalker(t, g, 11, DefaultParams())
	counts := make([]int, g.N())
	for i := 0; i < samples; i++ {
		res, err := w.NaiveWalk(0, ell)
		if err != nil {
			t.Fatal(err)
		}
		counts[res.Destination]++
	}
	checkDistribution(t, counts, exact)
}

func TestWalkOnWeightedGraph(t *testing.T) {
	// Float weights must drive the step distribution (a triangle with one
	// heavy edge), through the full stitched machinery.
	g := graph.New(3)
	if err := g.AddWeightedEdge(0, 1, 4); err != nil {
		t.Fatal(err)
	}
	if err := g.AddWeightedEdge(0, 2, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddWeightedEdge(1, 2, 1); err != nil {
		t.Fatal(err)
	}
	const (
		ell     = 20
		samples = 3000
	)
	exact, err := dist.WalkDist(g, 0, ell)
	if err != nil {
		t.Fatal(err)
	}
	w := newWalker(t, g, 13, Params{Lambda: 3, LambdaC: 1, Eta: 2})
	counts := make([]int, g.N())
	for i := 0; i < samples; i++ {
		res, err := w.SingleRandomWalk(0, ell)
		if err != nil {
			t.Fatal(err)
		}
		counts[res.Destination]++
	}
	checkDistribution(t, counts, exact)
}

func TestManyWalksRefillAccounting(t *testing.T) {
	// Starved inventory: batch refills must be counted in ManyResult.
	g, err := graph.Complete(5)
	if err != nil {
		t.Fatal(err)
	}
	prm := Params{Lambda: 2, LambdaC: 1, Eta: 1, UniformCounts: true}
	w := newWalker(t, g, 17, prm)
	res, err := w.ManyRandomWalks([]graph.NodeID{0, 0, 0, 0}, 60)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, wr := range res.Walks {
		sum += wr.Refills
	}
	if sum != res.Refills {
		t.Fatalf("refill accounting: per-walk sum %d != total %d", sum, res.Refills)
	}
}

// TestRegenerateManyValidation: malformed input fails with ErrNoRegen —
// no walks, a nil walk, segments that do not sum to the walk's length or
// that overlap (a negative length, the sum kept), and the same walk twice
// (its walk IDs would collide), which must be rejected, not silently
// corrupted.
func TestRegenerateManyValidation(t *testing.T) {
	g, _ := graph.Complete(4)
	w := newWalker(t, g, 19, DefaultParams())
	res, err := w.NaiveWalk(0, 10)
	if err != nil {
		t.Fatal(err)
	}
	tampered := *res
	tampered.Segments = slices.Clone(res.Segments)
	tampered.Segments[0].Length++
	// A segment of length −10 before the walk's own moves it to start at
	// position −10, off the walk.
	overlap := *res
	overlap.Segments = []Segment{{Start: 0, End: 0, WalkID: 1 << 40, Length: -10}, res.Segments[0]}
	overlap.Segments[1].Length += 10
	for _, c := range []struct {
		name  string
		walks []*WalkResult
	}{
		{"empty slice", nil},
		{"nil entry", []*WalkResult{nil}},
		{"tampered segment length", []*WalkResult{&tampered}},
		{"overlapping segments", []*WalkResult{&overlap}},
		{"duplicate walk", []*WalkResult{res, res}},
	} {
		if _, err := w.RegenerateMany(c.walks); !errors.Is(err, ErrNoRegen) {
			t.Errorf("%s: error %v, want ErrNoRegen", c.name, err)
		}
	}
}

func TestRegenerateManyTraces(t *testing.T) {
	g, err := graph.Torus(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	w := newWalker(t, g, 23, DefaultParams())
	many, err := w.ManyRandomWalks([]graph.NodeID{0, 7, 13}, 400)
	if err != nil {
		t.Fatal(err)
	}
	traces, err := w.RegenerateMany(many.Walks)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 3 {
		t.Fatalf("got %d traces", len(traces))
	}
	for i, tr := range traces {
		reconstruct(t, g, tr, many.Walks[i])
	}
}
