package core

import (
	"reflect"
	"runtime"
	"slices"
	"testing"
	"weak"

	"distwalk/internal/graph"
)

// reconstruct returns the full node sequence of a walk from a Trace and
// verifies basic integrity along the way.
func reconstruct(t *testing.T, g *graph.G, tr *Trace, res *WalkResult) []graph.NodeID {
	t.Helper()
	seq := tr.Path
	if len(seq) != res.Length+1 {
		t.Fatalf("path holds %d positions, want %d", len(seq), res.Length+1)
	}
	for i, v := range seq {
		if v < 0 || int(v) >= g.N() {
			t.Fatalf("position %d holds node %d, not in [0,%d)", i, v, g.N())
		}
		if i > 0 && !g.HasEdge(seq[i-1], v) {
			t.Fatalf("positions %d->%d use non-edge (%d,%d)", i-1, i, seq[i-1], v)
		}
	}
	if seq[0] != res.Source || seq[res.Length] != res.Destination {
		t.Fatalf("walk runs %d..%d, want %d..%d", seq[0], seq[res.Length], res.Source, res.Destination)
	}
	return seq
}

func TestRegenerateStitchedWalk(t *testing.T) {
	g := kite(t)
	// Find a seed whose stitched walk needed no refills (plenty exist with
	// η=4); refill walks are covered by TestRegenerateRefillSegmentsForward.
	var (
		w   *Walker
		res *WalkResult
	)
	for seed := uint64(0); seed < 20; seed++ {
		w = newWalker(t, g, seed, Params{Lambda: 4, LambdaC: 1, Eta: 4})
		r, err := w.SingleRandomWalk(5, 60)
		if err != nil {
			t.Fatal(err)
		}
		if r.Refills == 0 && len(r.Segments) > 2 {
			res = r
			break
		}
	}
	if res == nil {
		t.Fatal("no refill-free stitched walk in 20 seeds")
	}
	tr, err := w.Regenerate(res)
	if err != nil {
		t.Fatal(err)
	}
	seq := reconstruct(t, g, tr, res)

	// First-visit bookkeeping must match the reconstructed sequence.
	firstSeen := make(map[graph.NodeID]int)
	for i, v := range seq {
		if _, ok := firstSeen[v]; !ok {
			firstSeen[v] = i
		}
	}
	for v, want := range firstSeen {
		if int(tr.FirstVisitTime[v]) != want {
			t.Fatalf("first visit of %d = %d, want %d", v, tr.FirstVisitTime[v], want)
		}
		if want > 0 && tr.FirstVisitFrom[v] != seq[want-1] {
			t.Fatalf("first-visit edge of %d from %d, want %d", v, tr.FirstVisitFrom[v], seq[want-1])
		}
	}
	if tr.FirstVisitFrom[res.Source] != graph.None {
		t.Fatal("source has a first-visit predecessor")
	}
}

func TestRegenerateNaiveWalk(t *testing.T) {
	g := kite(t)
	w := newWalker(t, g, 7, DefaultParams())
	res, err := w.NaiveWalk(0, 25)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := w.Regenerate(res)
	if err != nil {
		t.Fatal(err)
	}
	reconstruct(t, g, tr, res)
}

func TestRegenerateCoverFlag(t *testing.T) {
	g, err := graph.Complete(4)
	if err != nil {
		t.Fatal(err)
	}
	w := newWalker(t, g, 9, DefaultParams())
	// A long walk on K4 covers it w.h.p.
	res, err := w.NaiveWalk(0, 200)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := w.Regenerate(res)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Covered {
		t.Fatal("200-step walk on K4 did not cover")
	}
	// A 1-step walk cannot cover 4 nodes.
	res1, err := w.NaiveWalk(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr1, err := w.Regenerate(res1)
	if err != nil {
		t.Fatal(err)
	}
	if tr1.Covered {
		t.Fatal("1-step walk covered K4")
	}
}

// keyedPath recomputes a walk's path from its segments' keys, one hop at
// a time, as a sequential reference for the distributed replay.
func keyedPath(w *Walker, res *WalkResult) []graph.NodeID {
	path := []graph.NodeID{res.Source}
	for _, s := range res.Segments {
		v, key := s.Start, walkKey(w.net.SeedMix(), s.WalkID)
		for j := range int32(s.Length) {
			v = w.g.Neighbors(v)[w.hopPort(v, key, j)].To
			path = append(path, v)
		}
	}
	return path
}

// TestRegenerateRefillSegmentsForward: a GET-MORE-WALKS walk draws its
// hops from its own keys like a Phase 1 walk, so its segment replays
// forward with the others. Starve the inventory so refills are
// guaranteed, and check every regenerated path against keyedPath.
func TestRegenerateRefillSegmentsForward(t *testing.T) {
	g := kite(t)
	prm := Params{Lambda: 2, LambdaC: 1, Eta: 1, UniformCounts: true}
	w := newWalker(t, g, 11, prm)
	checked := 0
	for i := 0; i < 20; i++ {
		res, err := w.SingleRandomWalk(0, 80)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := w.Regenerate(res)
		if err != nil {
			t.Fatal(err)
		}
		reconstruct(t, g, tr, res)
		if want := keyedPath(w, res); !slices.Equal(tr.Path, want) {
			t.Fatalf("walk %d: replayed path %v, want %v", i, tr.Path, want)
		}
		if res.Refills > 0 {
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("starved inventory produced no refill walks to check")
	}
}

// TestRegenerateTwiceSameTrace: the replay stores and consumes nothing,
// so a second Regenerate of a walk returns the first trace bit for bit,
// refill segments included.
func TestRegenerateTwiceSameTrace(t *testing.T) {
	g := kite(t)
	prm := Params{Lambda: 2, LambdaC: 1, Eta: 1, UniformCounts: true}
	refills := 0
	for seed := uint64(1); seed <= 20; seed++ {
		w := newWalker(t, g, seed, prm)
		res, err := w.SingleRandomWalk(0, 80)
		if err != nil {
			t.Fatal(err)
		}
		refills += res.Refills
		first, err := w.Regenerate(res)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		second, err := w.Regenerate(res)
		if err != nil {
			t.Fatalf("seed %d: second Regenerate: %v", seed, err)
		}
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("seed %d: second Regenerate returned another trace:\n first  %v\n second %v", seed, first.Path, second.Path)
		}
	}
	if refills == 0 {
		t.Fatal("starved inventory produced no refill walks to check")
	}
}

func TestRegenerateManyRefillCouponsFromOneBatch(t *testing.T) {
	// Several walks of one GET-MORE-WALKS run stitched into one walk must
	// all replay.
	g, err := graph.Complete(6)
	if err != nil {
		t.Fatal(err)
	}
	prm := Params{Lambda: 3, LambdaC: 1, Eta: 1, UniformCounts: true}
	w := newWalker(t, g, 17, prm)
	for i := 0; i < 10; i++ {
		res, err := w.SingleRandomWalk(0, 120)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := w.Regenerate(res)
		if err != nil {
			t.Fatal(err)
		}
		reconstruct(t, g, tr, res)
	}
}

func TestRegenerateNilResult(t *testing.T) {
	w := newWalker(t, kite(t), 1, DefaultParams())
	if _, err := w.Regenerate(nil); err == nil {
		t.Fatal("nil result accepted")
	}
}

func TestRegenerateCostComparableToWalk(t *testing.T) {
	// Section 2.2: regeneration costs no more than Phase 1-scale work.
	g, err := graph.Torus(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	w := newWalker(t, g, 13, DefaultParams())
	res, err := w.SingleRandomWalk(0, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Refills > 0 {
		t.Skip("refills present")
	}
	tr, err := w.Regenerate(res)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Cost.Rounds > res.Cost.Rounds {
		t.Fatalf("regeneration (%d rounds) cost more than the walk (%d rounds)",
			tr.Cost.Rounds, res.Cost.Rounds)
	}
}

// TestRegenerateManyAllocs: a replay allocates its traces from one slab
// per element type, and its segment lists are the walker's, so the
// allocations per call are the same for one walk or sixteen and for one
// segment or many. Measured on Torus(16,16), seed 5, default parameters:
// 4 per call (the trace pointers, the traces, their node and time
// slabs) for k ∈ {1, 4, 16} at ℓ ∈ {8, 256, 4 096}; ℓ = 8 takes the naive
// path, one segment per walk. k = 1 goes through Regenerate.
func TestRegenerateManyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	g, err := graph.Torus(16, 16)
	if err != nil {
		t.Fatal(err)
	}
	const bound = 4
	for _, k := range []int{1, 4, 16} {
		for _, ell := range []int{8, 256, 4096} {
			w := newWalker(t, g, 5, DefaultParams())
			sources := make([]graph.NodeID, k)
			for i := range sources {
				sources[i] = graph.NodeID(i * 37 % g.N())
			}
			many, err := w.ManyRandomWalks(sources, ell)
			if err != nil {
				t.Fatal(err)
			}
			segments := 0
			for _, wr := range many.Walks {
				segments += len(wr.Segments)
			}
			var regenErr error
			allocs := testing.AllocsPerRun(10, func() {
				if k == 1 {
					_, regenErr = w.Regenerate(many.Walks[0])
				} else {
					_, regenErr = w.RegenerateMany(many.Walks)
				}
			})
			if regenErr != nil {
				t.Fatal(regenErr)
			}
			t.Logf("k=%d ℓ=%d (%d segments): %.0f allocs per call", k, ell, segments, allocs)
			if allocs > bound {
				t.Errorf("k=%d ℓ=%d (%d segments): %.0f allocs per call, want at most %d", k, ell, segments, allocs, bound)
			}
		}
	}
}

// TestRegenerateRetainsNoTrace: the walker keeps no trace reachable once
// a replay returns, so traces the caller drops are collected.
func TestRegenerateRetainsNoTrace(t *testing.T) {
	g, err := graph.Torus(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	w := newWalker(t, g, 3, DefaultParams())
	many, err := w.ManyRandomWalks([]graph.NodeID{0, 9, 27, 36, 63}, 256)
	if err != nil {
		t.Fatal(err)
	}
	traces, err := w.RegenerateMany(many.Walks)
	if err != nil {
		t.Fatal(err)
	}
	weaks := make([]weak.Pointer[Trace], len(traces))
	for i, tr := range traces {
		weaks[i] = weak.Make(tr)
	}
	traces = nil
	runtime.GC()
	for i, p := range weaks {
		if p.Value() != nil {
			t.Errorf("trace %d is still reachable after the caller dropped it", i)
		}
	}
	runtime.KeepAlive(w)
}
