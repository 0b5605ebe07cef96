package spanning

import (
	"math"
	"testing"

	"distwalk/internal/core"
	"distwalk/internal/graph"
	"distwalk/internal/rng"
	"distwalk/internal/stats"
)

func newWalker(t *testing.T, g *graph.G, seed uint64) *core.Walker {
	t.Helper()
	w, err := core.NewWalker(g, seed, core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestRandomSpanningTreeIsSpanningTree(t *testing.T) {
	graphs := []struct {
		name string
		g    func() (*graph.G, error)
	}{
		{"K5", func() (*graph.G, error) { return graph.Complete(5) }},
		{"cycle7", func() (*graph.G, error) { return graph.Cycle(7) }},
		{"torus4x4", func() (*graph.G, error) { return graph.Torus(4, 4) }},
		{"candy(4,3)", func() (*graph.G, error) { return graph.Candy(4, 3) }},
		{"grid3x3", func() (*graph.G, error) { return graph.Grid(3, 3) }},
	}
	for _, tc := range graphs {
		t.Run(tc.name, func(t *testing.T) {
			g, err := tc.g()
			if err != nil {
				t.Fatal(err)
			}
			for seed := uint64(0); seed < 5; seed++ {
				w := newWalker(t, g, seed)
				res, err := RandomSpanningTree(w, 0, Options{})
				if err != nil {
					t.Fatal(err)
				}
				if err := ValidateTree(g, 0, res.Parent); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if res.Attempts < 1 || res.Phases < 1 {
					t.Fatalf("bookkeeping: %+v", res)
				}
			}
		})
	}
}

func TestRandomSpanningTreeSingleton(t *testing.T) {
	g := graph.New(1)
	w := newWalker(t, g, 1)
	res, err := RandomSpanningTree(w, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Parent[0] != graph.None {
		t.Fatal("singleton tree malformed")
	}
}

func TestRandomSpanningTreeBadRoot(t *testing.T) {
	g, _ := graph.Complete(3)
	w := newWalker(t, g, 1)
	if _, err := RandomSpanningTree(w, 9, Options{}); err == nil {
		t.Fatal("bad root accepted")
	}
}

func TestRandomSpanningTreeDeliver(t *testing.T) {
	g, err := graph.Torus(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	w := newWalker(t, g, 3)
	res, err := RandomSpanningTree(w, 0, Options{Deliver: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateTree(g, 0, res.Parent); err != nil {
		t.Fatal(err)
	}
}

func TestValidateTreeRejectsBadTrees(t *testing.T) {
	g, _ := graph.Complete(4)
	cases := []struct {
		name   string
		parent []graph.NodeID
	}{
		{"wrong length", []graph.NodeID{graph.None, 0}},
		{"root has parent", []graph.NodeID{1, 0, 0, 0}},
		{"orphan", []graph.NodeID{graph.None, 0, 0, graph.None}},
		{"cycle", []graph.NodeID{graph.None, 2, 3, 1}},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			if err := ValidateTree(g, 0, tt.parent); err == nil {
				t.Fatal("bad tree accepted")
			}
		})
	}
	// Non-edge case needs a sparser graph.
	p, _ := graph.Path(4)
	if err := ValidateTree(p, 0, []graph.NodeID{graph.None, 0, 1, 0}); err == nil {
		t.Fatal("tree with non-edge accepted")
	}
}

func TestSpanningTreeCountKnownValues(t *testing.T) {
	tests := []struct {
		name string
		g    func() (*graph.G, error)
		want float64
	}{
		{"K3", func() (*graph.G, error) { return graph.Complete(3) }, 3},
		{"K4", func() (*graph.G, error) { return graph.Complete(4) }, 16}, // Cayley: 4^2
		{"K5", func() (*graph.G, error) { return graph.Complete(5) }, 125},
		{"C6", func() (*graph.G, error) { return graph.Cycle(6) }, 6},
		{"path5", func() (*graph.G, error) { return graph.Path(5) }, 1},
		{"star6", func() (*graph.G, error) { return graph.Star(6) }, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			g, err := tt.g()
			if err != nil {
				t.Fatal(err)
			}
			got, err := SpanningTreeCount(g)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-tt.want) > 1e-6*tt.want+1e-9 {
				t.Fatalf("count = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestSpanningTreeCountDisconnected(t *testing.T) {
	g := graph.New(3)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	c, err := SpanningTreeCount(g)
	if err != nil {
		t.Fatal(err)
	}
	if c != 0 {
		t.Fatalf("disconnected count = %v, want 0", c)
	}
}

func TestEnumerateTreesMatchesCount(t *testing.T) {
	for _, gen := range []func() (*graph.G, error){
		func() (*graph.G, error) { return graph.Complete(4) },
		func() (*graph.G, error) { return graph.Cycle(5) },
		func() (*graph.G, error) { return graph.Candy(3, 2) },
	} {
		g, err := gen()
		if err != nil {
			t.Fatal(err)
		}
		keys, err := EnumerateTrees(g)
		if err != nil {
			t.Fatal(err)
		}
		count, err := SpanningTreeCount(g)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(float64(len(keys))-count) > 0.5 {
			t.Fatalf("enumerated %d trees, matrix-tree says %v", len(keys), count)
		}
		seen := make(map[string]bool)
		for _, k := range keys {
			if seen[k] {
				t.Fatalf("duplicate tree %q", k)
			}
			seen[k] = true
		}
	}
}

func TestWilsonUniformOnK4(t *testing.T) {
	g, err := graph.Complete(4)
	if err != nil {
		t.Fatal(err)
	}
	keys, err := EnumerateTrees(g)
	if err != nil {
		t.Fatal(err)
	}
	idx := make(map[string]int, len(keys))
	for i, k := range keys {
		idx[k] = i
	}
	r := rng.New(7)
	counts := make([]int, len(keys))
	const samples = 8000
	for i := 0; i < samples; i++ {
		parent, err := Wilson(g, 0, r)
		if err != nil {
			t.Fatal(err)
		}
		j, ok := idx[TreeKey(parent)]
		if !ok {
			t.Fatalf("Wilson produced unknown tree %q", TreeKey(parent))
		}
		counts[j]++
	}
	p, err := stats.UniformityPValue(counts)
	if err != nil {
		t.Fatal(err)
	}
	if p < 1e-4 {
		t.Fatalf("Wilson not uniform on K4: %v (p=%v)", counts, p)
	}
}

func TestAldousBroderUniformOnK4(t *testing.T) {
	// Theorem 4.1: the distributed driver samples uniformly over the 16
	// spanning trees of K4. Start ℓ well above the cover time so the
	// fixed-horizon conditioning bias is negligible against this test.
	g, err := graph.Complete(4)
	if err != nil {
		t.Fatal(err)
	}
	keys, err := EnumerateTrees(g)
	if err != nil {
		t.Fatal(err)
	}
	idx := make(map[string]int, len(keys))
	for i, k := range keys {
		idx[k] = i
	}
	counts := make([]int, len(keys))
	const samples = 3000
	for i := 0; i < samples; i++ {
		w := newWalker(t, g, uint64(i))
		res, err := RandomSpanningTree(w, 0, Options{StartLength: 64})
		if err != nil {
			t.Fatal(err)
		}
		j, ok := idx[TreeKey(res.Parent)]
		if !ok {
			t.Fatalf("driver produced unknown tree %q", TreeKey(res.Parent))
		}
		counts[j]++
	}
	p, err := stats.UniformityPValue(counts)
	if err != nil {
		t.Fatal(err)
	}
	if p < 1e-4 {
		t.Fatalf("Aldous-Broder driver not uniform on K4: %v (p=%v)", counts, p)
	}
}

func TestAldousBroderUniformOnCycle(t *testing.T) {
	// C5 has exactly 5 trees (drop one edge each).
	g, err := graph.Cycle(5)
	if err != nil {
		t.Fatal(err)
	}
	keys, err := EnumerateTrees(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 5 {
		t.Fatalf("C5 has %d trees?", len(keys))
	}
	idx := make(map[string]int, len(keys))
	for i, k := range keys {
		idx[k] = i
	}
	counts := make([]int, len(keys))
	const samples = 2500
	for i := 0; i < samples; i++ {
		w := newWalker(t, g, uint64(10000+i))
		res, err := RandomSpanningTree(w, 0, Options{StartLength: 128})
		if err != nil {
			t.Fatal(err)
		}
		counts[idx[TreeKey(res.Parent)]]++
	}
	p, err := stats.UniformityPValue(counts)
	if err != nil {
		t.Fatal(err)
	}
	if p < 1e-4 {
		t.Fatalf("driver not uniform on C5: %v (p=%v)", counts, p)
	}
}

// TestCoverCheckPicksLowestCoveringWalk checks the one-convergecast cover
// check against the walk-by-walk rule it replaces: the lowest covering
// index wins, -1 means none covers, and a phase of more than 64 walks
// takes one convergecast per 64 walks it has to look at.
func TestCoverCheckPicksLowestCoveringWalk(t *testing.T) {
	g, err := graph.Torus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	w := newWalker(t, g, 1)
	if _, err := w.Prepare(0); err != nil {
		t.Fatal(err)
	}
	// trace i misses node i%16 unless i is listed as covering.
	traces := func(k int, covering ...int) []*core.Trace {
		out := make([]*core.Trace, k)
		for i := range out {
			fv := make([]int32, g.N())
			fv[i%g.N()] = -1
			for _, c := range covering {
				if c == i {
					fv[i%g.N()] = 0
				}
			}
			out[i] = &core.Trace{FirstVisitTime: fv}
		}
		return out
	}
	one, _, err := coverCheck(w, traces(1, 0))
	if err != nil || one != 0 {
		t.Fatalf("single covering walk: got %d, %v", one, err)
	}
	_, sweep, err := coverCheck(w, traces(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name     string
		k        int
		covering []int
		want     int
		sweeps   int
	}{
		{"none", 5, nil, -1, 1},
		{"lowest of two", 5, []int{4, 2}, 2, 1},
		{"first", 5, []int{0, 1, 2, 3, 4}, 0, 1},
		{"second word", 70, []int{68, 66}, 66, 2},
		{"first word wins", 70, []int{66, 63}, 63, 1},
		{"none of 70", 70, nil, -1, 2},
	} {
		got, cost, err := coverCheck(w, traces(c.k, c.covering...))
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want || cost.Rounds != c.sweeps*sweep.Rounds {
			t.Errorf("%s: walk %d in %d rounds, want walk %d in %d", c.name, got, cost.Rounds, c.want, c.sweeps*sweep.Rounds)
		}
	}
}

// TestRSTKeptInventoryMatchesNaiveSchedule compares the tree law of
// RandomSpanningTree with that of the naive schedule (Lambda = 1<<30: the
// same doubling phases, every walk a naive token) by a two-sample χ² over
// the five trees of C5. Both sides condition on covering within the same
// fixed horizons, so they share that bias and must agree. From
// StartLength 12 the first phase stitches (λ = 6) and fails to cover a
// quarter of the time; the next two phases (λ targets 8 and 11) stitch
// from the first phase's kept inventory, which must therefore supply at
// least a fifth of the trees.
func TestRSTKeptInventoryMatchesNaiveSchedule(t *testing.T) {
	g, err := graph.Cycle(5)
	if err != nil {
		t.Fatal(err)
	}
	keys, err := EnumerateTrees(g)
	if err != nil {
		t.Fatal(err)
	}
	idx := make(map[string]int, len(keys))
	for i, k := range keys {
		idx[k] = i
	}
	const samples, start = 2000, 12
	opt := Options{StartLength: start, WalksPerPhase: 1}
	// kept reports whether the covering phase stitched from an inventory
	// an earlier phase provisioned: λ = ⌈√(ℓD) + 1⌉ for one walk (D = 2),
	// kept while below twice the inventory's.
	kept := func(phases int) bool {
		inv := 0
		for p, ell := 1, start; p <= phases; p, ell = p+1, ell*2 {
			lam := int(math.Ceil(math.Sqrt(float64(2*ell)) + 1))
			if p == phases {
				return inv > 0 && lam < 2*inv
			}
			if inv == 0 || lam >= 2*inv {
				inv = lam
			}
		}
		return false
	}
	trees := func(prm core.Params, seed uint64) ([]int, int) {
		counts, fromKept := make([]int, len(keys)), 0
		for i := uint64(0); i < samples; i++ {
			w, err := core.NewWalker(g, seed+i, prm)
			if err != nil {
				t.Fatal(err)
			}
			res, err := RandomSpanningTree(w, 0, opt)
			if err != nil {
				t.Fatal(err)
			}
			j, ok := idx[TreeKey(res.Parent)]
			if !ok {
				t.Fatalf("RandomSpanningTree produced unknown tree %q", TreeKey(res.Parent))
			}
			counts[j]++
			if kept(res.Phases) {
				fromKept++
			}
		}
		return counts, fromKept
	}
	fast, fromKept := trees(core.DefaultParams(), 20000)
	naive, _ := trees(core.Params{Lambda: 1 << 30, Eta: 1}, 40000)
	t.Logf("trees %v (%d from a kept inventory) vs naive schedule %v", fast, fromKept, naive)
	if fromKept < samples/5 {
		t.Fatalf("%d of %d trees came from a kept-inventory phase, want at least a fifth", fromKept, samples)
	}
	stat, df := 0.0, -1
	for i := range fast {
		if n := fast[i] + naive[i]; n > 0 {
			d := float64(fast[i] - naive[i])
			stat += d * d / float64(n)
			df++
		}
	}
	p, err := stats.ChiSquarePValue(stat, df)
	if err != nil {
		t.Fatal(err)
	}
	if p < 1e-4 {
		t.Fatalf("tree law differs from the naive schedule's: χ²=%.1f (df %d), p=%v", stat, df, p)
	}
}
