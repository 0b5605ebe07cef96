package core

import (
	"fmt"
	"slices"
	"testing"

	"distwalk/internal/graph"
	"distwalk/internal/rng"
)

// TestSingleWalkIsManyK1 holds SINGLE-RANDOM-WALK to MANY-RANDOM-WALKS
// with k = 1 under a fixed λ: the same cost, destination, segments,
// refills, naive flag and λ, on a fresh walker's first call and on the
// second call that keeps its inventory. NaiveWalk is the k = 1 naive
// fallback (2λ > ℓ) the same way.
func TestSingleWalkIsManyK1(t *testing.T) {
	tor, err := graph.Torus(16, 16)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := graph.ConnectedRandomRegular(64, 4, rng.New(1), 100)
	if err != nil {
		t.Fatal(err)
	}
	variants := []struct {
		name string
		prm  func(lam int) Params
	}{
		{"default", func(lam int) Params { p := DefaultParams(); p.Lambda = lam; return p }},
		{"PerCallBFS", func(lam int) Params { p := DefaultParams(); p.Lambda, p.PerCallBFS = lam, true; return p }},
		{"DNP09", func(lam int) Params { p := DNP09Params(1024, 8); p.Lambda = lam; return p }},
		{"Metropolis", func(lam int) Params { p := DefaultParams(); p.Lambda, p.Metropolis = lam, true; return p }},
		{"UniformCounts", func(lam int) Params { p := DefaultParams(); p.Lambda, p.UniformCounts = lam, true; return p }},
	}
	cells := []struct{ ell, lam int }{{0, 4}, {1, 2}, {9, 4}, {64, 3}, {300, 16}, {1024, 5}, {1024, 40}, {4096, 64}, {1024, 5000}}
	pairs, stitched, refilled := 0, 0, 0
	for gi, g := range []*graph.G{tor, rr, kite(t)} {
		source := graph.NodeID(g.N() / 3)
		for _, v := range variants {
			for ci, c := range cells {
				seed := uint64(1 + (gi+ci)%3)
				prm := v.prm(c.lam)
				ws, wm := newWalker(t, g, seed, prm), newWalker(t, g, seed, prm)
				for call := range 2 {
					name := fmt.Sprintf("graph %d %s ℓ=%d λ=%d call %d", gi, v.name, c.ell, c.lam, call)
					single, err := ws.SingleRandomWalk(source, c.ell)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					many, err := wm.ManyRandomWalks([]graph.NodeID{source}, c.ell)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					sameAsK1(t, name, single, many)
					if single.Naive && c.ell > 0 && single.Lambda != c.lam {
						t.Errorf("%s: naive walk reports λ=%d, want the computed %d", name, single.Lambda, c.lam)
					}
					if !single.Naive && single.Lambda != many.Lambda {
						t.Errorf("%s: λ %d, k = 1 stitched with %d", name, single.Lambda, many.Lambda)
					}
					pairs++
					if len(single.Segments) > 1 {
						stitched++
					}
					if single.Refills > 0 {
						refilled++
					}
				}
			}
			// NaiveWalk against the k = 1 naive fallback.
			const ell = 200
			prm := v.prm(ell + 1)
			wn, wm := newWalker(t, g, 7, prm), newWalker(t, g, 7, prm)
			for call := range 2 {
				name := fmt.Sprintf("graph %d %s NaiveWalk call %d", gi, v.name, call)
				naive, err := wn.NaiveWalk(source, ell)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				many, err := wm.ManyRandomWalks([]graph.NodeID{source}, ell)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				sameAsK1(t, name, naive, many)
				pairs++
			}
		}
	}
	t.Logf("%d single/many pairs identical; %d stitched, %d refilled", pairs, stitched, refilled)
	if stitched == 0 || refilled == 0 {
		t.Fatal("the sweep must stitch and refill")
	}
}

// sameAsK1 compares one walk with the k = 1 MANY-RANDOM-WALKS call that
// should reproduce it.
func sameAsK1(t *testing.T, name string, single *WalkResult, many *ManyResult) {
	t.Helper()
	if len(many.Walks) != 1 || len(many.Destinations) != 1 {
		t.Fatalf("%s: k = 1 call returned %d walks", name, len(many.Walks))
	}
	wr := many.Walks[0]
	if single.Cost != many.Cost {
		t.Errorf("%s: cost %+v, k = 1 cost %+v", name, single.Cost, many.Cost)
	}
	if single.Destination != many.Destinations[0] || single.Destination != wr.Destination {
		t.Errorf("%s: destination %d, k = 1 destination %d", name, single.Destination, many.Destinations[0])
	}
	if !slices.Equal(single.Segments, wr.Segments) {
		t.Errorf("%s: segments %v, k = 1 segments %v", name, single.Segments, wr.Segments)
	}
	if single.Refills != many.Refills || single.Refills != wr.Refills {
		t.Errorf("%s: %d refills, k = 1 %d", name, single.Refills, many.Refills)
	}
	if single.Length != wr.Length || single.Source != wr.Source {
		t.Errorf("%s: walk %d→ of length %d, k = 1 %d→ of length %d", name, single.Source, single.Length, wr.Source, wr.Length)
	}
	if single.Length > 0 && single.Naive != many.NaiveFallback {
		t.Errorf("%s: naive %v, k = 1 fallback %v", name, single.Naive, many.NaiveFallback)
	}
}

// TestSingleWalkAllocs holds the single-walk entry points' allocations on
// a warm walker, reseeded and reset per request as a Service worker is,
// to the counts measured on Torus(48,48): the walk driver shared with
// MANY-RANDOM-WALKS must not cost the k = 1 call a batch result or
// per-walk slices. What is left is the result, its segment list and the
// destination report's sorted list and lookup; the ℓ = 1 024 walks
// refill now and then, and a refilled connector's request adds its own.
func TestSingleWalkAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	g, err := graph.Torus(48, 48)
	if err != nil {
		t.Fatal(err)
	}
	prm := DefaultParams()
	w := newWalker(t, g, 1, prm)
	for _, c := range []struct {
		name  string
		ell   int
		naive bool
		bound float64
	}{
		{"SingleRandomWalk ℓ=64", 64, false, 4},
		{"SingleRandomWalk ℓ=1024", 1024, false, 5},
		{"NaiveWalk ℓ=64", 64, true, 4},
	} {
		key := uint64(0)
		var runErr error
		request := func() {
			key++
			w.Network().Reseed(key)
			if err := w.Reset(prm); err != nil {
				runErr = err
				return
			}
			var err error
			if c.naive {
				_, err = w.NaiveWalk(0, c.ell)
			} else {
				_, err = w.SingleRandomWalk(0, c.ell)
			}
			if err != nil {
				runErr = err
			}
		}
		request() // warm the slabs
		allocs := testing.AllocsPerRun(10, request)
		if runErr != nil {
			t.Fatal(runErr)
		}
		t.Logf("%s: %.0f allocs per request", c.name, allocs)
		if allocs > c.bound {
			t.Errorf("%s: %.0f allocs per request, want at most %.0f", c.name, allocs, c.bound)
		}
	}
}
