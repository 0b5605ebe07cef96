package pathverify

import (
	"testing"
	"testing/quick"

	"distwalk/internal/congest"
	"distwalk/internal/graph"
	"distwalk/internal/rng"
	"distwalk/internal/stats"
)

func TestIvSetInsertMerging(t *testing.T) {
	var s ivSet
	if _, changed := s.insert(iv{3, 5}); !changed {
		t.Fatal("fresh insert reported no change")
	}
	// Contained: no change.
	if _, changed := s.insert(iv{4, 4}); changed {
		t.Fatal("contained insert reported change")
	}
	// Sharing position 5: merge.
	m, changed := s.insert(iv{5, 9})
	if !changed || m != (iv{3, 9}) {
		t.Fatalf("merge gave %v changed=%v", m, changed)
	}
	// Adjacent but not sharing a position: stays separate.
	m, changed = s.insert(iv{1, 2})
	if !changed || m != (iv{1, 2}) {
		t.Fatalf("adjacent insert gave %v", m)
	}
	if len(s.list) != 2 {
		t.Fatalf("set has %d intervals, want 2", len(s.list))
	}
	// Bridge: [2,3] shares 2 with [1,2] and 3 with [3,9].
	m, changed = s.insert(iv{2, 3})
	if !changed || m != (iv{1, 9}) {
		t.Fatalf("bridge merge gave %v", m)
	}
	if len(s.list) != 1 {
		t.Fatalf("set has %d intervals after bridge, want 1", len(s.list))
	}
	if !s.has(iv{1, 9}) || s.has(iv{0, 9}) {
		t.Fatal("has() answers wrong")
	}
}

func TestIvSetInvalidInterval(t *testing.T) {
	var s ivSet
	if _, changed := s.insert(iv{5, 3}); changed {
		t.Fatal("inverted interval accepted")
	}
}

func TestQuickIvSetStaysDisjointSorted(t *testing.T) {
	f := func(seed uint64, opsRaw uint8) bool {
		r := rng.New(seed)
		var s ivSet
		for op := 0; op < int(opsRaw%40)+5; op++ {
			lo := int32(r.Intn(50))
			s.insert(iv{lo, lo + int32(r.Intn(8))})
			for i := 0; i < len(s.list); i++ {
				if s.list[i].lo > s.list[i].hi {
					return false
				}
				// Strictly separated: no shared or adjacent-shared position.
				if i > 0 && s.list[i-1].hi >= s.list[i].lo {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func pathOrder(n int) []int32 {
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i + 1)
	}
	return order
}

func TestVerifyOnPlainPath(t *testing.T) {
	const n = 24
	g, err := graph.Path(n)
	if err != nil {
		t.Fatal(err)
	}
	net := congest.NewNetwork(g, 1)
	res, err := Verify(net, pathOrder(n), n)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatal("valid path not verified")
	}
	// On a bare path information can only flow along P: Θ(ℓ) rounds.
	if res.Rounds < n/2-1 || res.Rounds > 3*n {
		t.Fatalf("path verification took %d rounds, want Θ(%d)", res.Rounds, n)
	}
}

func TestVerifyInputValidation(t *testing.T) {
	g, _ := graph.Path(4)
	net := congest.NewNetwork(g, 1)
	if _, err := Verify(net, []int32{1, 2}, 4); err == nil {
		t.Fatal("wrong order length accepted")
	}
	if _, err := Verify(net, []int32{1, 2, 2, 3}, 3); err == nil {
		t.Fatal("duplicate order accepted")
	}
	if _, err := Verify(net, []int32{1, 2, 0, 4}, 4); err == nil {
		t.Fatal("missing position accepted")
	}
	if _, err := Verify(net, []int32{1, 2, 3, 9}, 4); err == nil {
		t.Fatal("out-of-range order accepted")
	}
	if _, err := Verify(net, pathOrder(4), 0); err == nil {
		t.Fatal("ell=0 accepted")
	}
}

func TestVerifyRejectsNonPathSequence(t *testing.T) {
	// Assign orders 1..4 to nodes that do NOT form a path: on a star, the
	// leaves are never adjacent, so the sequence cannot be verified and
	// the protocol must reach quiescence unverified.
	g, err := graph.Star(5)
	if err != nil {
		t.Fatal(err)
	}
	order := []int32{0, 1, 2, 3, 4} // the four leaves in sequence
	net := congest.NewNetwork(g, 1)
	res, err := Verify(net, order, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verified {
		t.Fatal("non-path sequence verified")
	}
}

func TestVerifyOnGnVerifies(t *testing.T) {
	lb, err := graph.NewLowerBound(256, 0)
	if err != nil {
		t.Fatal(err)
	}
	order, err := GnOrder(lb, lb.PathLen)
	if err != nil {
		t.Fatal(err)
	}
	net := congest.NewNetwork(lb.G, 3)
	res, err := Verify(net, order, lb.PathLen)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatal("G_n path not verified")
	}
	// The lower bound: more than k = √(ℓ/log ℓ) rounds.
	if res.Rounds <= lb.K {
		t.Fatalf("verification in %d rounds beats the Ω(k)=%d lower bound?!", res.Rounds, lb.K)
	}
	// The tree must help: far fewer rounds than the bare-path Θ(ℓ).
	if res.Rounds >= lb.PathLen/2 {
		t.Fatalf("verification took %d rounds on ℓ=%d: tree gave no speedup", res.Rounds, lb.PathLen)
	}
}

// gnRounds verifies the whole path of G_n and returns the rounds taken.
func gnRounds(t *testing.T, lb *graph.LowerBound, opts ...congest.Option) int {
	t.Helper()
	order, err := GnOrder(lb, lb.PathLen)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Verify(congest.NewNetwork(lb.G, 5, opts...), order, lb.PathLen)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatalf("G_n path (ℓ=%d) not verified", lb.PathLen)
	}
	return res.Rounds
}

// Theorem 3.2 from both sides: across a 16× range of ℓ the rounds on G_n
// grow like √ℓ — far below the Θ(ℓ) of a bare path — and never reach
// down to the k = √(ℓ/log ℓ) floor. A change that verifies G_n in ≤ k
// rounds has broken the model (or the verifier), not beaten the bound.
func TestVerifyOnGnSqrtShape(t *testing.T) {
	var ells, rounds []float64
	for _, n := range []int{256, 1024, 4096} {
		lb, err := graph.NewLowerBound(n, 0)
		if err != nil {
			t.Fatal(err)
		}
		r := gnRounds(t, lb)
		if r <= lb.K {
			t.Errorf("ℓ=%d verified in %d rounds, at or below the Ω(√(ℓ/log ℓ)) floor k=%d", lb.PathLen, r, lb.K)
		}
		ells = append(ells, float64(lb.PathLen))
		rounds = append(rounds, float64(r))
	}
	slope, err := stats.LogLogSlope(ells, rounds)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("rounds at ℓ=%v: %v; exponent %.3f", ells, rounds, slope)
	if slope < 0.40 || slope > 0.65 {
		t.Fatalf("rounds on G_n grow like ℓ^%.3f, want ≈0.5 (a bare path is 1.0)", slope)
	}
}

// Theorem 3.8: unbounded capacity on P's own edges does not break the
// bound — the tree edges are the bottleneck. The interval verifier offers
// each edge one interval per round whatever the engine would carry, so
// what this holds is the floor on the capacitated network.
func TestClaimThm38PathCapacityDoesNotHelp(t *testing.T) {
	lb, err := graph.NewLowerBound(1024, 0)
	if err != nil {
		t.Fatal(err)
	}
	onPath := func(v graph.NodeID) bool { return int(v) < lb.PathLen }
	r := gnRounds(t, lb, congest.WithEdgeCapFunc(func(from, to graph.NodeID) int {
		if onPath(from) && onPath(to) {
			return 1 << 20
		}
		return 1 // the CONGEST budget on tree edges
	}))
	t.Logf("ℓ=%d with capacity 2²⁰ on P: %d rounds, k=%d", lb.PathLen, r, lb.K)
	if r <= lb.K {
		t.Fatalf("ℓ=%d verified in %d rounds with fat path edges, at or below the floor k=%d", lb.PathLen, r, lb.K)
	}
}

func TestForcedWalkFollowsPath(t *testing.T) {
	lb, err := graph.NewLowerBound(300, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(7)
	followed := 0
	const trials = 200
	for i := 0; i < trials; i++ {
		res, err := ForcedWalk(lb, lb.PathLen-1, r)
		if err != nil {
			t.Fatal(err)
		}
		if res.FollowedPath {
			followed++
			if res.End != lb.PathNode(lb.PathLen) {
				t.Fatalf("followed path but ended at %d", res.End)
			}
		}
	}
	// Theorem 3.7: deviation probability ≤ 1/n per walk.
	if followed < trials*97/100 {
		t.Fatalf("walk followed P only %d/%d times", followed, trials)
	}
}

func TestForcedWalkValidation(t *testing.T) {
	lb, err := graph.NewLowerBound(64, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ForcedWalk(lb, -1, rng.New(1)); err == nil {
		t.Fatal("negative steps accepted")
	}
	if _, err := ForcedWalk(lb, lb.PathLen+5, rng.New(1)); err == nil {
		t.Fatal("overlong walk accepted")
	}
	res, err := ForcedWalk(lb, 0, rng.New(1))
	if err != nil || !res.FollowedPath || res.End != lb.PathNode(1) {
		t.Fatalf("zero-step walk: %+v err=%v", res, err)
	}
}

func TestVerifyDeterministic(t *testing.T) {
	lb, err := graph.NewLowerBound(200, 0)
	if err != nil {
		t.Fatal(err)
	}
	order, err := GnOrder(lb, lb.PathLen)
	if err != nil {
		t.Fatal(err)
	}
	run := func() int {
		net := congest.NewNetwork(lb.G, 9)
		res, err := Verify(net, order, lb.PathLen)
		if err != nil {
			t.Fatal(err)
		}
		return res.Rounds
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("verification rounds diverged: %d vs %d", a, b)
	}
}

// TestVerifierReuse exercises the warm-reuse path the Verifier exists
// for: one Verifier running many instances back to back must (a) return
// bit-identical results to one-shot Verify calls — the epoch-stamped sent
// sets, rewound queues and truncated interval sets may leak nothing
// between runs — and (b) stop allocating once its slabs reach their
// high-water marks.
func TestVerifierReuse(t *testing.T) {
	lb, err := graph.NewLowerBound(512, 0)
	if err != nil {
		t.Fatal(err)
	}
	net := congest.NewNetwork(lb.G, 11)
	vf := NewVerifier(net)
	// Alternate two different instance sizes so run N's state (queues,
	// sent entries, interval sets from a longer path) would poison run
	// N+1 if any reset were incomplete.
	ells := []int{lb.PathLen, lb.PathLen / 2, lb.PathLen, lb.PathLen / 4, lb.PathLen}
	for round, ell := range ells {
		order, err := GnOrder(lb, ell)
		if err != nil {
			t.Fatal(err)
		}
		warm, err := vf.Verify(order, ell)
		if err != nil {
			t.Fatalf("round %d (ell=%d): %v", round, ell, err)
		}
		fresh, err := Verify(congest.NewNetwork(lb.G, 11), order, ell)
		if err != nil {
			t.Fatal(err)
		}
		if *warm != *fresh {
			t.Fatalf("round %d (ell=%d): warm verifier diverged\nwarm:  %+v\nfresh: %+v",
				round, ell, warm, fresh)
		}
		if !warm.Verified {
			t.Fatalf("round %d (ell=%d): not verified", round, ell)
		}
	}
	// Allocation discipline: after the runs above settled the slabs,
	// further runs reuse everything (the bound covers the Result, the
	// engine's per-run bookkeeping and runtime noise, not per-node state,
	// which alone would be thousands).
	order, err := GnOrder(lb, lb.PathLen)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := vf.Verify(order, lb.PathLen); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 100 {
		t.Fatalf("warm Verify allocated %.0f times; Verifier slabs are not being reused", allocs)
	}
}

// TestVerifyShardIdentity pins that PATH-VERIFICATION runs bit-identically
// on the sharded engine — including the Verifier field, whose "first node
// in step order wins" tie-break is reproduced across concurrent shard
// steps by the CAS-min claim.
func TestVerifyShardIdentity(t *testing.T) {
	lb, err := graph.NewLowerBound(256, 0)
	if err != nil {
		t.Fatal(err)
	}
	order, err := GnOrder(lb, lb.PathLen)
	if err != nil {
		t.Fatal(err)
	}
	seqNet := congest.NewNetwork(lb.G, 3)
	seq, err := NewVerifier(seqNet).Verify(order, lb.PathLen)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 4, 8} {
		net := congest.NewNetwork(lb.G, 3, congest.WithShards(shards))
		vf := NewVerifier(net)
		// Two back-to-back runs: slab reuse must stay shard-clean too.
		for run := 0; run < 2; run++ {
			net.Reseed(3)
			got, err := vf.Verify(order, lb.PathLen)
			if err != nil {
				t.Fatalf("shards=%d run %d: %v", shards, run, err)
			}
			if got.Verified != seq.Verified || got.Verifier != seq.Verifier ||
				got.Rounds != seq.Rounds || got.Cost != seq.Cost {
				t.Fatalf("shards=%d run %d: %+v != sequential %+v", shards, run, got, seq)
			}
		}
	}
}
