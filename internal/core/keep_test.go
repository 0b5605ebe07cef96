package core

import (
	"maps"
	"slices"
	"testing"

	"distwalk/internal/dist"
	"distwalk/internal/graph"
	"distwalk/internal/stats"
)

// inventory returns every unused coupon in the network by walk ID.
func inventory(w *Walker) map[int64]coupon {
	all := make(map[int64]coupon)
	for v := range w.st.coupons {
		for _, c := range w.st.coupons[v].list {
			all[c.walkID] = c
		}
	}
	return all
}

// TestKeptInventoryRule pins ensurePhase1's one provisioning rule by exact
// sweeps on Torus(8,8). A call whose λ is in [λ_inv, 2λ_inv) keeps the
// inventory and stitches with λ_inv. It runs Phase 1 only when a source
// holds fewer unused walks of its own than the call starts there, and
// then each node starts only the walks it lacks to hold η·deg(v) plus
// its extras again, one message per step of each. A call with
// λ ≥ 2λ_inv (or λ < λ_inv) re-provisions η·deg(v) walks at every node
// plus all the extras, and so does every call after Reset. The walk
// results report λ_inv.
func TestKeptInventoryRule(t *testing.T) {
	g, err := graph.Torus(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	// provisioned checks a full Phase 1 at lam: every node's η·deg(v)
	// walks plus the extras, one message per step, nothing older left.
	provisioned := func(t *testing.T, w *Walker, lam int, extra map[graph.NodeID]int) {
		t.Helper()
		old := inventory(w)
		res, err := w.ensurePhase1(lam, extra)
		if err != nil {
			t.Fatal(err)
		}
		if w.lambda != lam {
			t.Errorf("inventory λ %d after provisioning at %d", w.lambda, lam)
		}
		now := inventory(w)
		want, steps := 2*g.M(), int64(0)
		for _, n := range extra {
			want += n
		}
		for id, c := range now {
			if _, ok := old[id]; ok {
				t.Fatalf("coupon %d survived re-provisioning", id)
			}
			if c.length < int32(lam) || c.length >= int32(2*lam) {
				t.Fatalf("coupon length %d outside [%d, %d)", c.length, lam, 2*lam)
			}
			steps += int64(c.length)
		}
		if len(now) != want || res.Messages != steps {
			t.Errorf("provisioning: %d coupons, %d messages; want %d, %d", len(now), res.Messages, want, steps)
		}
	}

	t.Run("kept", func(t *testing.T) {
		w := newWalker(t, g, 1, DefaultParams())
		if _, err := w.Prepare(0); err != nil {
			t.Fatal(err)
		}
		provisioned(t, w, 64, map[graph.NodeID]int{0: 1})
		// A walk at the same λ uses some nodes' walks; node 0 keeps some.
		walk, err := w.SingleRandomWalk(0, 1024)
		if err != nil {
			t.Fatal(err)
		}
		if walk.Breakdown.Phase1 != 0 || walk.Lambda != 64 || len(walk.Segments) < 8 {
			t.Fatalf("walk paid %d Phase 1 rounds, λ %d, %d segments; want 0, 64 and a stitched walk",
				walk.Breakdown.Phase1, walk.Lambda, len(walk.Segments))
		}
		for _, c := range []struct {
			lam   int
			extra map[graph.NodeID]int
			runs  bool
		}{
			{100, map[graph.NodeID]int{0: 9, 9: 1}, true},
			{127, map[graph.NodeID]int{0: 2, 18: 13}, true},
			{64, map[graph.NodeID]int{0: 9, 18: 2}, false},
		} {
			lack, used := map[graph.NodeID]int{}, 0
			for v := range g.N() {
				u := graph.NodeID(v)
				level := g.Degree(u) + c.extra[u]
				if n := level - w.st.couponTotal(u); n > 0 {
					lack[u] = n
				}
				used += max(0, g.Degree(u)-w.st.couponTotal(u))
			}
			if !c.runs {
				lack = map[graph.NodeID]int{}
			}
			old := inventory(w)
			res, err := w.ensurePhase1(c.lam, c.extra)
			if err != nil {
				t.Fatal(err)
			}
			if w.lambda != 64 {
				t.Fatalf("λ=%d: inventory λ %d, want the kept 64", c.lam, w.lambda)
			}
			now := inventory(w)
			minted, steps := map[graph.NodeID]int{}, int64(0)
			for id, c := range now {
				if _, ok := old[id]; ok {
					continue
				}
				if c.length < 64 || c.length >= 128 {
					t.Fatalf("top-up coupon length %d outside [64, 128)", c.length)
				}
				minted[c.owner]++
				steps += int64(c.length)
			}
			for id := range old {
				if _, ok := now[id]; !ok {
					t.Fatalf("λ=%d: kept coupon %d vanished", c.lam, id)
				}
			}
			t.Logf("λ=%d: %d walks used before, topped up %d nodes, %d messages", c.lam, used, len(minted), res.Messages)
			if !maps.Equal(minted, lack) || res.Messages != steps {
				t.Errorf("λ=%d: minted %v with %d messages; want %v with %d", c.lam, minted, res.Messages, lack, steps)
			}
		}
	})

	t.Run("rebuilt", func(t *testing.T) {
		w := newWalker(t, g, 2, DefaultParams())
		if _, err := w.Prepare(0); err != nil {
			t.Fatal(err)
		}
		provisioned(t, w, 64, map[graph.NodeID]int{0: 1})
		provisioned(t, w, 128, map[graph.NodeID]int{0: 1, 5: 2})
		provisioned(t, w, 127, map[graph.NodeID]int{0: 1})
		if err := w.Reset(DefaultParams()); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Prepare(0); err != nil {
			t.Fatal(err)
		}
		provisioned(t, w, 127, map[graph.NodeID]int{0: 1})
	})

	t.Run("reported", func(t *testing.T) {
		w := newWalker(t, g, 3, DefaultParams())
		first, err := w.SingleRandomWalk(0, 512)
		if err != nil {
			t.Fatal(err)
		}
		second, err := w.SingleRandomWalk(0, 1024)
		if err != nil {
			t.Fatal(err)
		}
		target := w.prm.lambda(1024, w.tree.Height, g.N())
		if first.Lambda != 64 || target != 91 || second.Lambda != 64 {
			t.Errorf("single: λ %d then %d (target %d), want 64 then the kept 64", first.Lambda, second.Lambda, target)
		}
		if err := w.Reset(DefaultParams()); err != nil {
			t.Fatal(err)
		}
		k := []graph.NodeID{0, 0}
		many1, err := w.ManyRandomWalks(k, 512)
		if err != nil {
			t.Fatal(err)
		}
		many2, err := w.ManyRandomWalks(k, 1024)
		if err != nil {
			t.Fatal(err)
		}
		if many1.Lambda != 93 || many2.Lambda != 93 {
			t.Errorf("many: λ %d then %d, want 93 then the kept 93", many1.Lambda, many2.Lambda)
		}
		for i, wr := range many2.Walks {
			if wr.Lambda != 93 {
				t.Errorf("many: walk %d reports λ %d, want 93", i, wr.Lambda)
			}
		}
	})
}

// TestKeptInventoryEndpointDistribution holds walks stitched from a kept
// inventory to the exact ℓ-step law. On the kite each walker provisions
// for a shorter walk first; the later, longer walks, single and many,
// have a target λ below twice the inventory's, so they stitch (and
// refill) with the kept λ.
func TestKeptInventoryEndpointDistribution(t *testing.T) {
	g := kite(t)
	const (
		source  = graph.NodeID(5)
		trials  = 150
		samples = 20 // per walker, after the provisioning call
	)
	for _, c := range []struct {
		name       string
		k          int
		first, ell int
	}{
		{"single", 1, 12, 24},
		{"many", 2, 32, 48},
	} {
		t.Run(c.name, func(t *testing.T) {
			exact, err := dist.WalkDist(g, source, c.ell)
			if err != nil {
				t.Fatal(err)
			}
			// walk runs one call from source and returns its λ and
			// destinations.
			walk := func(w *Walker, ell int) (int, []graph.NodeID) {
				t.Helper()
				if c.k == 1 {
					res, err := w.SingleRandomWalk(source, ell)
					if err != nil {
						t.Fatal(err)
					}
					return res.Lambda, []graph.NodeID{res.Destination}
				}
				res, err := w.ManyRandomWalks(slices.Repeat([]graph.NodeID{source}, c.k), ell)
				if err != nil {
					t.Fatal(err)
				}
				return res.Lambda, res.Destinations
			}
			counts := make([]int, g.N())
			for trial := 0; trial < trials; trial++ {
				w := newWalker(t, g, uint64(5000+trial), DefaultParams())
				kept, _ := walk(w, c.first)
				target := w.prm.lambdaMany(c.k, c.ell, w.tree.Height, g.N())
				if c.k == 1 {
					target = w.prm.lambda(c.ell, w.tree.Height, g.N())
				}
				if kept == 0 || 2*kept > c.ell || target < kept || target >= 2*kept {
					t.Fatalf("λ %d for ℓ=%d, target %d for ℓ=%d: the later walks would not stitch from a kept inventory", kept, c.first, target, c.ell)
				}
				for i := 0; i < samples/c.k; i++ {
					lam, dests := walk(w, c.ell)
					if lam != kept {
						t.Fatalf("walk stitched with λ %d, want the kept %d", lam, kept)
					}
					for _, d := range dests {
						counts[d]++
					}
				}
			}
			var obs []int
			var exp []float64
			for v, p := range exact {
				if p > 1e-12 {
					obs = append(obs, counts[v])
					exp = append(exp, p)
				}
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
				t.Fatalf("kept-inventory endpoints off: p=%v obs=%v", p, obs)
			}
		})
	}
}

// TestStitchAllocatesNothing gates SAMPLE-DESTINATION's allocations: on a
// warm walker with a fixed Lambda, a request (Reseed, Reset, walk) costs
// as many allocations with dozens of stitches as with one or two, for a
// single walk and for k walks.
func TestStitchAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	g, err := graph.Torus(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	prm := Params{Lambda: 8, LambdaC: 1, Eta: 4}
	w := newWalker(t, g, 1, prm)
	for _, k := range []int{1, 4} {
		sources := slices.Repeat([]graph.NodeID{0}, k)
		// request runs one request and returns its stitch and refill
		// counts.
		request := func(ell int) (stitches, refills int) {
			w.Network().Reseed(9)
			if err := w.Reset(prm); err != nil {
				t.Fatal(err)
			}
			walks := []*WalkResult{nil}
			if k == 1 {
				res, err := w.SingleRandomWalk(0, ell)
				if err != nil {
					t.Fatal(err)
				}
				walks[0] = res
			} else {
				res, err := w.ManyRandomWalks(sources, ell)
				if err != nil {
					t.Fatal(err)
				}
				walks = res.Walks
			}
			for _, wr := range walks {
				stitches += len(wr.Segments) - 1
				refills += wr.Refills
			}
			return stitches, refills
		}
		allocs := map[int]float64{}
		for _, ell := range []int{24, 512} {
			stitches, refills := request(ell)
			allocs[ell] = testing.AllocsPerRun(20, func() { request(ell) })
			t.Logf("k=%d ℓ=%d: %d stitches, %d refills, %.0f allocs per request", k, ell, stitches, refills, allocs[ell])
			if refills != 0 {
				t.Fatalf("k=%d ℓ=%d: %d refills; the gate compares stitches alone", k, ell, refills)
			}
		}
		if allocs[512] > allocs[24] {
			t.Errorf("k=%d: %.0f allocs per request at ℓ=512, %.0f at ℓ=24: stitches allocate", k, allocs[512], allocs[24])
		}
	}
}
