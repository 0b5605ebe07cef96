package core

import (
	"testing"

	"distwalk/internal/congest"
	"distwalk/internal/graph"
	"distwalk/internal/stats"
)

// plantCoupons installs coupons owned by `owner` at the given holders.
func plantCoupons(w *Walker, owner graph.NodeID, holders []graph.NodeID) []int64 {
	ids := make([]int64, len(holders))
	for i, h := range holders {
		id := w.st.newWalkID(h)
		w.st.addCoupon(h, coupon{owner: owner, walkID: id, length: 5})
		ids[i] = id
	}
	return ids
}

// sampleDestination runs one stand-alone SAMPLE-DESTINATION(v): the
// announce part, then the sample part with no stitch to follow.
func (w *Walker) sampleDestination(v graph.NodeID) (sampleResult, congest.Result, error) {
	tree, cost, err := w.announce(v)
	if err != nil {
		return sampleResult{}, cost, err
	}
	r, res, err := w.sample(tree, v, -1, graph.None)
	cost.Add(res)
	return r, cost, err
}

func TestSampleDestinationUniform(t *testing.T) {
	// 6 coupons spread unevenly over the graph (3 on one node) must each
	// be sampled with probability 1/6 — Lemma 2.4 / Lemma A.2.
	g, err := graph.Torus(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	const owner = graph.NodeID(4)
	holders := []graph.NodeID{0, 0, 0, 2, 7, 4}

	counts := make(map[int64]int)
	const trials = 6000
	for trial := 0; trial < trials; trial++ {
		w := newWalker(t, g, uint64(trial), DefaultParams())
		if _, err := w.ensureTree(owner); err != nil {
			t.Fatal(err)
		}
		ids := plantCoupons(w, owner, holders)
		res, _, err := w.sampleDestination(owner)
		if err != nil {
			t.Fatal(err)
		}
		if !res.found {
			t.Fatal("sample found nothing")
		}
		// Identify which planted coupon was drawn by position.
		found := false
		for i, id := range ids {
			if id == res.walkID {
				if res.dest != holders[i] {
					t.Fatalf("coupon %d reported holder %d, want %d", id, res.dest, holders[i])
				}
				counts[int64(i)]++
				found = true
			}
		}
		if !found {
			t.Fatalf("sampled unknown coupon %d", res.walkID)
		}
	}
	obs := make([]int, len(holders))
	for i := range obs {
		obs[i] = counts[int64(i)]
	}
	p, err := stats.UniformityPValue(obs)
	if err != nil {
		t.Fatal(err)
	}
	if p < 1e-4 {
		t.Fatalf("coupon sampling not uniform: counts=%v p=%v", obs, p)
	}
}

func TestSampleDestinationDeletesCoupon(t *testing.T) {
	g, err := graph.Torus(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	w := newWalker(t, g, 9, DefaultParams())
	const owner = graph.NodeID(0)
	if _, err := w.ensureTree(owner); err != nil {
		t.Fatal(err)
	}
	plantCoupons(w, owner, []graph.NodeID{3, 5})
	seen := make(map[int64]bool)
	for i := 0; i < 2; i++ {
		res, _, err := w.sampleDestination(owner)
		if err != nil {
			t.Fatal(err)
		}
		if !res.found {
			t.Fatalf("draw %d found nothing", i)
		}
		if seen[res.walkID] {
			t.Fatalf("coupon %d drawn twice (not deleted)", res.walkID)
		}
		seen[res.walkID] = true
	}
	res, _, err := w.sampleDestination(owner)
	if err != nil {
		t.Fatal(err)
	}
	if res.found {
		t.Fatal("third draw from two coupons succeeded")
	}
}

func TestSampleDestinationEmpty(t *testing.T) {
	g, err := graph.Torus(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	w := newWalker(t, g, 10, DefaultParams())
	if _, err := w.ensureTree(0); err != nil {
		t.Fatal(err)
	}
	res, cost, err := w.sampleDestination(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.found {
		t.Fatal("found coupons in an empty store")
	}
	if cost.Rounds == 0 {
		t.Fatal("empty sampling should still cost sweeps")
	}
}

func TestSampleDestinationIgnoresOtherOwners(t *testing.T) {
	g, err := graph.Torus(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	w := newWalker(t, g, 11, DefaultParams())
	if _, err := w.ensureTree(0); err != nil {
		t.Fatal(err)
	}
	plantCoupons(w, 1, []graph.NodeID{2, 3}) // owned by node 1, not 0
	res, _, err := w.sampleDestination(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.found {
		t.Fatal("sampled another owner's coupon")
	}
}

func TestSampleDestinationCostIsTreeBound(t *testing.T) {
	// Each of the four sweeps is at most Height (plus the request depth):
	// total must be O(D), far below n for a long path.
	g, err := graph.Path(60)
	if err != nil {
		t.Fatal(err)
	}
	w := newWalker(t, g, 12, DefaultParams())
	if _, err := w.ensureTree(0); err != nil {
		t.Fatal(err)
	}
	plantCoupons(w, 30, []graph.NodeID{10, 50})
	_, cost, err := w.sampleDestination(30)
	if err != nil {
		t.Fatal(err)
	}
	if cost.Rounds > 5*w.tree.Height+5 {
		t.Fatalf("sampling cost %d rounds exceeds 5·height=%d", cost.Rounds, 5*w.tree.Height)
	}
}

// stitchSweeps measures, on w's tree, what a stitch whose owner is known
// costs (the convergecast plus the result broadcast) and what the
// announce broadcast costs. An empty candidate draws nothing, so
// measuring them moves no random stream.
func stitchSweeps(t *testing.T, w *Walker) (later, announce congest.Result) {
	t.Helper()
	_, later, err := congest.Convergecast(w.net, w.tree,
		func(graph.NodeID) congest.Message { return sampleCand{}.msg() },
		func(graph.NodeID, *congest.Message, *congest.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	result, err := congest.Broadcast(w.net, w.tree, []congest.Message{sampleResult{}.msg()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	later.Add(result)
	announce, err = congest.Broadcast(w.net, w.tree, []congest.Message{ownerMsg(kindSampleAnnounce, 0)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return later, announce
}

// TestLaterStitchesSkipAnnounce pins the stitch's sweep count on a fixed
// Torus(8,8) walk: the first stitch from the tree root pays the announce
// broadcast (its request is free), and every later stitch pays exactly
// the convergecast plus the result broadcast, because the previous
// result already named its owner.
func TestLaterStitchesSkipAnnounce(t *testing.T) {
	g, err := graph.Torus(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	const seed, ell = 1, 512
	w := newWalker(t, g, seed, DefaultParams())
	if _, err := w.Prepare(0); err != nil {
		t.Fatal(err)
	}
	later, announce := stitchSweeps(t, w)
	lam := w.prm.lambda(ell, w.tree.Height, g.N())
	if _, err := phase1With(w, lam, map[graph.NodeID]int{0: 1}); err != nil {
		t.Fatal(err)
	}
	out := &WalkResult{}
	cur, announced, completed, stitches := graph.NodeID(0), false, 0, 0
	for ; completed <= ell-2*lam; stitches++ {
		before := out.Cost
		pick, err := w.stitchOnce(out, cur, announced, ell-2*lam-completed, graph.None)
		if err != nil {
			t.Fatal(err)
		}
		if !pick.found {
			t.Fatalf("stitch %d found no coupon", stitches)
		}
		want := later
		if stitches == 0 {
			want.Add(announce)
		}
		got := congest.Result{
			Rounds:   out.Cost.Rounds - before.Rounds,
			Messages: out.Cost.Messages - before.Messages,
			Words:    out.Cost.Words - before.Words,
		}
		if got.Rounds != want.Rounds || got.Messages != want.Messages || got.Words != want.Words {
			t.Errorf("stitch %d cost %d rounds, %d messages, %d words; want %d, %d, %d",
				stitches, got.Rounds, got.Messages, got.Words, want.Rounds, want.Messages, want.Words)
		}
		completed += int(pick.length)
		cur, announced = pick.dest, true
	}
	if stitches < 2 {
		t.Fatalf("%d stitches, want at least 2", stitches)
	}

	// The same walk end to end: its stitching is the first announce plus
	// the later-stitch sweeps, nothing more.
	res, err := newWalker(t, g, seed, DefaultParams()).SingleRandomWalk(0, ell)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Segments) != stitches+1 || res.Refills != 0 {
		t.Fatalf("walk has %d segments and %d refills, want %d and 0", len(res.Segments), res.Refills, stitches+1)
	}
	if want := announce.Rounds + stitches*later.Rounds; res.Breakdown.Stitch != want {
		t.Errorf("stitching cost %d rounds, want %d", res.Breakdown.Stitch, want)
	}
	t.Logf("%d stitches: %d stitch rounds; walk %d rounds, %d messages", stitches, res.Breakdown.Stitch, res.Cost.Rounds, res.Cost.Messages)
}

// TestManyWalksCarryNextAnnounce pins MANY-RANDOM-WALKS' stitch sweeps on
// Torus(8,8): every stitch pays the convergecast plus the result
// broadcast, and each walk's last result carries the next walk's
// announcement for one more round. The requests and walk 0's
// announcement are shared costs, outside every walk's Breakdown.
func TestManyWalksCarryNextAnnounce(t *testing.T) {
	g, err := graph.Torus(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	w := newWalker(t, g, 2, DefaultParams())
	if _, err := w.Prepare(0); err != nil {
		t.Fatal(err)
	}
	later, _ := stitchSweeps(t, w)
	sources := []graph.NodeID{0, 0, 9, 36}
	res, err := w.ManyRandomWalks(sources, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if res.NaiveFallback || res.Refills != 0 {
		t.Fatalf("naive %v, %d refills; want stitched walks without refills", res.NaiveFallback, res.Refills)
	}
	for i, wr := range res.Walks {
		stitches := len(wr.Segments) - 1 // the last segment is the tail
		want := stitches * later.Rounds
		if i+1 < len(res.Walks) {
			want++ // the next walk's announcement
		}
		if stitches < 1 || wr.Breakdown.Stitch != want {
			t.Errorf("walk %d: %d stitches cost %d rounds, want %d", i, stitches, wr.Breakdown.Stitch, want)
		}
	}
}
