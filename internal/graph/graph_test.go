package graph

import (
	"math"
	"testing"
	"testing/quick"

	"distwalk/internal/rng"
)

func TestAddEdgeBasics(t *testing.T) {
	g := New(3)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 2 {
		t.Fatalf("got n=%d m=%d, want 3, 2", g.N(), g.M())
	}
	if g.Degree(1) != 2 || g.Degree(0) != 1 {
		t.Fatalf("bad degrees: %d %d", g.Degree(1), g.Degree(0))
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) || g.HasEdge(0, 2) {
		t.Fatal("HasEdge answers wrong")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAddEdgeRejectsSelfLoop(t *testing.T) {
	g := New(2)
	if err := g.AddEdge(1, 1); err == nil {
		t.Fatal("self-loop accepted")
	}
}

func TestAddEdgeRejectsOutOfRange(t *testing.T) {
	g := New(2)
	for _, pair := range [][2]NodeID{{0, 2}, {-1, 0}, {5, 7}} {
		if err := g.AddEdge(pair[0], pair[1]); err == nil {
			t.Fatalf("edge %v accepted", pair)
		}
	}
}

func TestAddWeightedEdgeRejectsNonPositive(t *testing.T) {
	g := New(2)
	if err := g.AddWeightedEdge(0, 1, 0); err == nil {
		t.Fatal("zero weight accepted")
	}
	if err := g.AddWeightedEdge(0, 1, -2); err == nil {
		t.Fatal("negative weight accepted")
	}
}

func TestParallelEdges(t *testing.T) {
	g := New(2)
	for i := 0; i < 3; i++ {
		if err := g.AddEdge(0, 1); err != nil {
			t.Fatal(err)
		}
	}
	if g.M() != 3 || g.Degree(0) != 3 {
		t.Fatalf("multigraph not preserved: m=%d deg=%d", g.M(), g.Degree(0))
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestWeightedDegree(t *testing.T) {
	g := New(3)
	if err := g.AddWeightedEdge(0, 1, 2.5); err != nil {
		t.Fatal(err)
	}
	if err := g.AddWeightedEdge(1, 2, 0.5); err != nil {
		t.Fatal(err)
	}
	if got := g.WeightedDegree(1); got != 3.0 {
		t.Fatalf("weighted degree = %v, want 3", got)
	}
	if !g.Weighted() {
		t.Fatal("graph should report weighted")
	}
}

func TestUnweightedStepUniform(t *testing.T) {
	g := New(4)
	for _, v := range []NodeID{1, 2, 3} {
		if err := g.AddEdge(0, v); err != nil {
			t.Fatal(err)
		}
	}
	r := rng.New(1)
	counts := make(map[NodeID]int)
	const draws = 30000
	for i := 0; i < draws; i++ {
		v, err := g.Step(r, 0)
		if err != nil {
			t.Fatal(err)
		}
		counts[v]++
	}
	for _, v := range []NodeID{1, 2, 3} {
		if math.Abs(float64(counts[v])-draws/3.0) > 400 {
			t.Fatalf("neighbor %d drawn %d times, want ~%d", v, counts[v], draws/3)
		}
	}
}

func TestWeightedStepProportional(t *testing.T) {
	g := New(3)
	if err := g.AddWeightedEdge(0, 1, 3); err != nil {
		t.Fatal(err)
	}
	if err := g.AddWeightedEdge(0, 2, 1); err != nil {
		t.Fatal(err)
	}
	r := rng.New(2)
	hits := 0
	const draws = 40000
	for i := 0; i < draws; i++ {
		v, err := g.Step(r, 0)
		if err != nil {
			t.Fatal(err)
		}
		if v == 1 {
			hits++
		}
	}
	if frac := float64(hits) / draws; math.Abs(frac-0.75) > 0.01 {
		t.Fatalf("weight-3 neighbor taken %.3f of the time, want ~0.75", frac)
	}
}

func TestStepIsolatedNode(t *testing.T) {
	g := New(2)
	if _, err := g.Step(rng.New(3), 0); err == nil {
		t.Fatal("step from isolated node succeeded")
	}
}

// Lemma 2.6: in an ℓ-step walk no node y is visited more than
// Õ(d(y)·√ℓ) times. The lemma is about the walk process itself, so it is
// checked on locally simulated walks, which lets ℓ span two decades:
// max_y N(y) / (d(y)·√(ℓ+1)·ln n) must stay below 1 on sparse, dense,
// long-tailed and hub-dominated graphs alike.
func TestClaimLemma26VisitBound(t *testing.T) {
	families := []struct {
		name string
		make func() (*G, error)
	}{
		{"cycle(256)", func() (*G, error) { return Cycle(256) }},
		{"torus(16,16)", func() (*G, error) { return Torus(16, 16) }},
		{"candy(8,64)", func() (*G, error) { return Candy(8, 64) }},
		{"star(128)", func() (*G, error) { return Star(128) }},
	}
	for i, fam := range families {
		g, err := fam.make()
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(42).Stream(uint64(i))
		for _, ell := range []int{1_000, 10_000, 100_000} {
			worst := 0.0
			scale := math.Sqrt(float64(ell)+1) * math.Log(float64(g.N()))
			for walk := 0; walk < 5; walk++ {
				visits := make([]int, g.N())
				cur := NodeID(0)
				visits[cur]++
				for s := 0; s < ell; s++ {
					if cur, err = g.Step(r, cur); err != nil {
						t.Fatal(err)
					}
					visits[cur]++
				}
				for v, n := range visits {
					worst = math.Max(worst, float64(n)/(float64(g.Degree(NodeID(v)))*scale))
				}
			}
			t.Logf("%s ℓ=%d: max_y N(y)/(d(y)·√(ℓ+1)·ln n) = %.3f", fam.name, ell, worst)
			if worst >= 1 {
				t.Errorf("%s ℓ=%d: normalized maximum visit count %.3f, want < 1", fam.name, ell, worst)
			}
		}
	}
}

func TestMinMaxDegree(t *testing.T) {
	g, err := Star(5)
	if err != nil {
		t.Fatal(err)
	}
	if g.MinDegree() != 1 || g.MaxDegree() != 4 {
		t.Fatalf("star degrees: min=%d max=%d", g.MinDegree(), g.MaxDegree())
	}
	if New(0).MinDegree() != 0 || New(0).MaxDegree() != 0 {
		t.Fatal("empty graph degrees should be 0")
	}
}

func TestEdgesCopyIsDetached(t *testing.T) {
	g := New(2)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	es := g.Edges()
	es[0].U = 1
	if g.Edge(0).U != 0 {
		t.Fatal("Edges() exposed internal state")
	}
}

func TestQuickDegreeSumTwiceEdges(t *testing.T) {
	f := func(seed uint64, nRaw uint8, mRaw uint8) bool {
		n := int(nRaw%30) + 2
		m := int(mRaw % 60)
		r := rng.New(seed)
		g := New(n)
		added := 0
		for i := 0; i < m; i++ {
			u := NodeID(r.Intn(n))
			v := NodeID(r.Intn(n))
			if u == v {
				continue
			}
			if err := g.AddEdge(u, v); err != nil {
				return false
			}
			added++
		}
		sum := 0
		for v := 0; v < n; v++ {
			sum += g.Degree(NodeID(v))
		}
		return sum == 2*added && g.Validate() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickStepStaysOnNeighbors(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%20) + 3
		r := rng.New(seed)
		g, err := Cycle(n)
		if err != nil {
			return false
		}
		v := NodeID(r.Intn(n))
		u, err := g.Step(r, v)
		if err != nil {
			return false
		}
		return g.HasEdge(v, u)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestStepPortDrawsLikeStep: StepPort is Step with the port kept — on twin
// RNG streams it names the half-edge whose endpoint Step returns and
// leaves the stream in the same state, weighted or not, parallel edges
// included.
func TestStepPortDrawsLikeStep(t *testing.T) {
	build := func(weighted bool) *G {
		g := New(5)
		for i, e := range [][2]NodeID{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 1}, {1, 2}, {2, 3}, {3, 4}} {
			w := 1.0
			if weighted {
				w = float64(1 + i%3)
			}
			if err := g.AddWeightedEdge(e[0], e[1], w); err != nil {
				t.Fatal(err)
			}
		}
		return g
	}
	for _, weighted := range []bool{false, true} {
		g := build(weighted)
		if g.Weighted() != weighted {
			t.Fatalf("Weighted() = %v, want %v", g.Weighted(), weighted)
		}
		byTo, byPort := rng.New(11), rng.New(11)
		v := NodeID(0)
		for i := 0; i < 10000; i++ {
			to, err := g.Step(byTo, v)
			if err != nil {
				t.Fatal(err)
			}
			port, err := g.StepPort(byPort, v)
			if err != nil {
				t.Fatal(err)
			}
			if got := g.Neighbors(v)[port].To; got != to {
				t.Fatalf("weighted=%v draw %d at node %d: StepPort chose port %d (to %d), Step went to %d",
					weighted, i, v, port, got, to)
			}
			v = to
		}
		if a, b := byTo.Uint64(), byPort.Uint64(); a != b {
			t.Fatalf("weighted=%v: the RNG streams diverged after 10000 draws", weighted)
		}
	}
	if _, err := New(1).StepPort(rng.New(1), 0); err == nil {
		t.Fatal("StepPort on an isolated node did not fail")
	}
}
