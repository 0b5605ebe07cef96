package experiments

import (
	"fmt"
	"math"

	"distwalk/internal/core"
	"distwalk/internal/graph"
	"distwalk/internal/rng"
)

// E3 — Lemma 2.6: in any ℓ-step walk (ℓ = O(m²)), no node y is visited
// more than Õ(d(y)·√ℓ) times w.h.p. We simulate walks (the lemma is about
// the walk process itself, so a local simulation suffices and lets ℓ grow
// large) and report max_y visits(y)/(d(y)·√(ℓ+1)·ln n), which must stay
// bounded by a small constant across graphs and lengths.
var e3 = Experiment{
	ID:    "E3",
	Title: "visit-count bound",
	Claim: "max visits to y ≤ O(d(y)·√ℓ·log n) for any ℓ-step walk (Lemma 2.6)",
	Run: func(cfg Config) error {
		trials := cfg.Scale.pick(5, 10, 20)
		maxEll := cfg.Scale.pick(100_000, 400_000, 1_600_000)
		families := []struct {
			name string
			g    func() (*graph.G, error)
		}{
			{"cycle(256)", func() (*graph.G, error) { return graph.Cycle(256) }},
			{"torus(16x16)", func() (*graph.G, error) { return graph.Torus(16, 16) }},
			{"candy(8,64)", func() (*graph.G, error) { return graph.Candy(8, 64) }},
			{"star(128)", func() (*graph.G, error) { return graph.Star(128) }},
		}
		t := newTable("graph", "ell", "max_y N(y)/(d(y)·√(ℓ+1)·ln n)")
		for _, fam := range families {
			g, err := fam.g()
			if err != nil {
				return err
			}
			r := rng.New(cfg.Seed).Stream(uint64(len(fam.name)))
			for ell := maxEll / 100; ell <= maxEll; ell *= 10 {
				worst := 0.0
				for trial := 0; trial < trials; trial++ {
					norm, err := normalizedMaxVisits(g, ell, r)
					if err != nil {
						return err
					}
					if norm > worst {
						worst = norm
					}
				}
				t.addRow(fam.name, ell, worst)
			}
		}
		t.print(cfg.Out)
		cfg.printf("shape: the normalized maximum stays O(1) across graphs and two decades of ℓ\n\n")
		return nil
	},
}

// normalizedMaxVisits simulates one ℓ-step walk from node 0 and returns
// max_y N(y)/(d(y)·√(ℓ+1)·ln n).
func normalizedMaxVisits(g *graph.G, ell int, r *rng.RNG) (float64, error) {
	visits := make([]int, g.N())
	cur := graph.NodeID(0)
	visits[cur]++
	for i := 0; i < ell; i++ {
		next, err := g.Step(r, cur)
		if err != nil {
			return 0, err
		}
		cur = next
		visits[cur]++
	}
	scale := math.Sqrt(float64(ell)+1) * math.Log(float64(g.N()))
	worst := 0.0
	for v, n := range visits {
		norm := float64(n) / (float64(g.Degree(graph.NodeID(v))) * scale)
		if norm > worst {
			worst = norm
		}
	}
	return worst, nil
}

// E4 — Lemma 2.7: a node visited t times in the walk appears as a
// connector at most ~t·polylog/λ times, thanks to the random short-walk
// lengths. We count connector appearances per node on stitched walks and
// report the worst ratio connectors(y)·λ/t(y).
var e4 = Experiment{
	ID:    "E4",
	Title: "connector-count bound",
	Claim: "a node visited t times is a connector ≤ t·(log n)²/λ times (Lemma 2.7)",
	Run: func(cfg Config) error {
		ell := cfg.Scale.pick(4096, 16384, 65536)
		lambda := cfg.Scale.pick(32, 64, 128)
		trials := cfg.Scale.pick(5, 10, 20)
		g, err := graph.Cycle(128)
		if err != nil {
			return err
		}
		cfg.printf("   graph: cycle(128), ℓ=%d, λ=%d, η=6\n", ell, lambda)
		logSq := math.Pow(math.Log2(float64(g.N())), 2)
		t := newTable("trial", "max_y connectors(y)·λ/(visits(y)·(log n)²)   (bound: 1)")
		done := 0
		for seed := cfg.Seed; done < trials; seed++ {
			// η=6 provisions enough coupons that refills (which defeat
			// retracing) are rare; skip the rare refill walk.
			prm := core.Params{Lambda: lambda, LambdaC: 1, Eta: 6}
			w, err := core.NewWalker(g, seed, prm)
			if err != nil {
				return err
			}
			w.KeepTrail() // visitCounts regenerates the walk
			res, err := w.SingleRandomWalk(0, ell)
			if err != nil {
				return err
			}
			if res.Refills > 0 {
				continue
			}
			visits, err := visitCounts(w, res)
			if err != nil {
				return err
			}
			connectors := make(map[graph.NodeID]int)
			for _, s := range res.Segments {
				connectors[s.Start]++
			}
			worst := 0.0
			for v, c := range connectors {
				tv := visits[v]
				if tv == 0 {
					tv = 1
				}
				ratio := float64(c) * float64(lambda) / (float64(tv) * logSq)
				if ratio > worst {
					worst = ratio
				}
			}
			t.addRow(done, worst)
			done++
		}
		t.print(cfg.Out)
		cfg.printf("shape: normalized connector share stays below 1 (Lemma 2.7's t·(log n)²/λ)\n\n")
		return nil
	},
}

// connectorStats runs one stitched walk with the given short-walk policy
// and returns its result (used by the E10 ablation).
func connectorStats(g *graph.G, seed uint64, ell, lambda int, fixed bool) (*core.WalkResult, error) {
	prm := core.Params{Lambda: lambda, LambdaC: 1, Eta: 1, FixedLength: fixed}
	w, err := core.NewWalker(g, seed, prm)
	if err != nil {
		return nil, err
	}
	return w.SingleRandomWalk(0, ell)
}

func visitCounts(w *core.Walker, res *core.WalkResult) ([]int, error) {
	trace, err := w.Regenerate(res)
	if err != nil {
		return nil, err
	}
	visits := make([]int, len(trace.Positions))
	for v := range trace.Positions {
		visits[v] = len(trace.Positions[v])
	}
	return visits, nil
}

// E10 — ablation of the paper's key fix (random short-walk lengths in
// [λ, 2λ−1], Lemma 2.7). On a cycle, fixed-length short walks make
// connector placement periodic: the same nodes recur as connectors,
// draining their coupons and triggering GET-MORE-WALKS; random lengths
// spread connectors out.
var e10 = Experiment{
	ID:    "E10",
	Title: "ablation: random vs fixed short-walk lengths",
	Claim: "random lengths in [λ,2λ-1] spread connectors; fixed lengths concentrate them (Lemma 2.7)",
	Run: func(cfg Config) error {
		ell := cfg.Scale.pick(4096, 16384, 65536)
		lambda := cfg.Scale.pick(32, 64, 128)
		trials := cfg.Scale.pick(5, 10, 20)
		g, err := graph.Cycle(64)
		if err != nil {
			return err
		}
		cfg.printf("   graph: cycle(64), ℓ=%d, λ=%d, η=1\n", ell, lambda)
		t := newTable("lengths", "avg refills/walk", "distinct connectors / stitches")
		for _, fixed := range []bool{false, true} {
			label := "random [λ,2λ)"
			if fixed {
				label = "fixed λ"
			}
			refills, distinct, stitches := 0, 0, 0
			for trial := 0; trial < trials; trial++ {
				res, err := connectorStats(g, cfg.Seed+uint64(trial), ell, lambda, fixed)
				if err != nil {
					return err
				}
				refills += res.Refills
				seen := make(map[graph.NodeID]bool)
				for _, s := range res.Segments {
					seen[s.Start] = true
				}
				distinct += len(seen)
				stitches += len(res.Segments)
			}
			t.addRow(label, float64(refills)/float64(trials),
				fmt.Sprintf("%.2f", float64(distinct)/float64(stitches)))
		}
		t.print(cfg.Out)
		cfg.printf("shape: fixed lengths refill more (coupon pools drain under periodic connectors)\n\n")
		return nil
	},
}

// E11 — ablation of degree-proportional provisioning: Phase 1 prepares
// η·deg(v) walks per node precisely because the visit bound (Lemma 2.6)
// scales with d(y). With uniform counts, hub nodes of a star exhaust
// their coupons and force refills.
var e11 = Experiment{
	ID:    "E11",
	Title: "ablation: degree-proportional vs uniform Phase 1 counts",
	Claim: "η·deg(v) walks per node match the d(y)-proportional visit bound (Lemma 2.6)",
	Run: func(cfg Config) error {
		ell := cfg.Scale.pick(2048, 8192, 32768)
		trials := cfg.Scale.pick(5, 10, 20)
		g, err := graph.Star(64)
		if err != nil {
			return err
		}
		cfg.printf("   graph: star(64), ℓ=%d\n", ell)
		t := newTable("phase-1 counts", "avg refills/walk", "avg rounds")
		for _, uniform := range []bool{false, true} {
			label := "η·deg(v) (paper)"
			if uniform {
				label = "η per node (DNP09)"
			}
			refills, rounds := 0, 0
			for trial := 0; trial < trials; trial++ {
				prm := core.DefaultParams()
				prm.UniformCounts = uniform
				w, err := core.NewWalker(g, cfg.Seed+uint64(trial), prm)
				if err != nil {
					return err
				}
				res, err := w.SingleRandomWalk(1, ell) // start at a leaf
				if err != nil {
					return err
				}
				refills += res.Refills
				rounds += res.Cost.Rounds
			}
			t.addRow(label, float64(refills)/float64(trials), float64(rounds)/float64(trials))
		}
		t.print(cfg.Out)
		cfg.printf("shape: uniform counts starve the hub and refill more\n\n")
		return nil
	},
}
