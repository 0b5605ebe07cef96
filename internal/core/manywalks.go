package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"distwalk/internal/congest"
	"distwalk/internal/graph"
)

// ManyResult describes k walks computed by MANY-RANDOM-WALKS.
type ManyResult struct {
	// Destinations[i] is the endpoint of the walk from sources[i].
	Destinations []graph.NodeID
	// Walks holds the per-walk composition; shared costs (tree, Phase 1,
	// the pipelined stitch requests, batched notifications) appear only
	// in Cost.
	Walks []*WalkResult
	// Lambda is the short-walk base length the walks stitched with: the
	// kept inventory's when one was kept (see Walker), else the call's own
	// (0 on the naive path).
	Lambda int
	// NaiveFallback reports that no walk could stitch (2λ > ℓ), so all k
	// walks ran as parallel naive tokens (Õ(k+ℓ) rounds) with no Phase 1.
	NaiveFallback bool
	// Refills counts GET-MORE-WALKS invocations across all walks.
	Refills int
	// Cost is the total simulated cost of the batch.
	Cost congest.Result
}

// ManyRandomWalks computes k independent ℓ-step walks from the given (not
// necessarily distinct) sources in Õ(min(√(kℓD)+k, k+ℓ)) rounds
// (Theorem 2.8): one Phase 1 provisions short walks of length
// λ = Θ(√(kℓD)+k), then the walks are stitched one at a time. When no walk
// can stitch (2λ > ℓ) the k walks run as parallel naive tokens instead,
// with no Phase 1.
func (w *Walker) ManyRandomWalks(sources []graph.NodeID, ell int) (*ManyResult, error) {
	if err := w.acquire(); err != nil {
		return nil, err
	}
	defer w.release()
	k := len(sources)
	c := &walkCall{ManyResult: ManyResult{Destinations: make([]graph.NodeID, k), Walks: make([]*WalkResult, k)}}
	walks := make([]WalkResult, k)
	for i := range walks {
		c.Walks[i] = &walks[i]
	}
	err := w.manyRandomWalks(c, sources, ell, func(diam int) int { return w.prm.lambdaMany(k, ell, diam, w.g.N()) })
	if err != nil {
		return nil, w.faultize(err)
	}
	return &c.ManyResult, nil
}

// walkCall is one call of the walk driver: its result with the per-walk
// storage the caller owns (k Destinations, k Walks each pointing at a
// WalkResult), and what a k = 1 caller folds into its one walk.
type walkCall struct {
	ManyResult
	// shared holds the rounds of the stages the k walks share: the tree,
	// Phase 1, the opening announce (Stitch; see requestAll), the tails
	// and the destination report.
	shared Breakdown
	// ownLambda is the λ the call's rule gave, kept also when the call
	// fell back to the naive walk; Lambda is the λ it stitched with.
	ownLambda int
}

// manyRandomWalks is the one walk driver, MANY-RANDOM-WALKS, whose k = 1
// case is SINGLE-RANDOM-WALK: it walks from each of the k sources into
// c. lambda is the caller's λ rule given the tree height as D; a nil rule
// runs the naive k-walk.
func (w *Walker) manyRandomWalks(c *walkCall, sources []graph.NodeID, ell int, lambda func(diam int) int) error {
	if len(sources) == 0 {
		return fmt.Errorf("core: no sources")
	}
	for _, s := range sources {
		if err := w.checkNode(s); err != nil {
			return err
		}
	}
	if err := CheckLength(ell); err != nil {
		return err
	}
	if ell == 0 {
		for i, s := range sources {
			c.Destinations[i] = s
			*c.Walks[i] = WalkResult{Source: s, Destination: s, Naive: lambda == nil}
		}
		return nil
	}
	if w.g.N() == 1 {
		return fmt.Errorf("%w: cannot walk on a single-node graph", ErrGraphTooSmall)
	}

	treeRes, err := w.ensureTree(sources[0])
	if err != nil {
		return err
	}
	c.Cost.Add(treeRes)
	c.shared.TreeBuild = treeRes.Rounds
	if lambda != nil {
		c.ownLambda = lambda(max(w.tree.Height, 1))
	}
	w.beginCall(sources)
	if lambda == nil || !canStitch(ell, c.ownLambda) {
		// The paper's "if λ > ℓ then run the naive random walk algorithm",
		// already at 2λ > ℓ: no walk stitches, so Phase 1 would buy nothing.
		c.NaiveFallback = true
		w.naiveMany(c, sources, ell)
		return w.finish(c)
	}
	p1, err := w.ensurePhase1(c.ownLambda)
	if err != nil {
		return err
	}
	c.Cost.Add(p1)
	c.shared.Phase1 = p1.Rounds
	lam := w.lambda
	c.Lambda = lam

	// Every walk stitches at least once, so its first stitch needs no
	// announce part of its own: one pipelined upcast brings all k requests
	// to the root, the root announces the first walk, and each walk's last
	// result broadcast announces the next walk's source.
	announced := !w.prm.PerCallBFS
	if announced {
		res, err := w.requestAll(w.tree, sources)
		c.Cost.Add(res)
		c.shared.Stitch = res.Rounds
		if err != nil {
			return err
		}
	}

	// Stitch the k walks one at a time (as in the paper), but defer every
	// walk's ≤2λ-step naive tail so all k tails run concurrently below.
	for i, s := range sources {
		next := graph.None
		if i+1 < len(sources) {
			next = sources[i+1]
		}
		// Every stitched segment is at least λ long and leaves at least
		// 2λ steps, so a walk has at most ℓ/λ segments, tail included.
		wr := c.Walks[i]
		*wr = WalkResult{Source: s, Destination: s, Length: ell, Lambda: lam, Segments: make([]Segment, 0, ell/lam)}
		cur, completed, err := w.stitchSegments(wr, s, ell, lam, announced, next)
		if err != nil {
			return fmt.Errorf("core: walk %d from %d: %w", i, s, err)
		}
		w.walks[i].at, w.walks[i].steps = cur, int32(ell-completed)
		c.Refills += wr.Refills
		c.Cost.Add(wr.Cost)
	}
	return w.finish(c)
}

// requestAll is SAMPLE-DESTINATION's announce part for the first of
// sources, and opens MANY-RANDOM-WALKS' stitching. One pipelined upcast
// over tree carries a request for every walk whose source is not the
// root, in O(k + D) rounds where one request each would cost Σ depth(sᵢ),
// and the root announces the first walk's source.
func (w *Walker) requestAll(tree *congest.Tree, sources []graph.NodeID) (congest.Result, error) {
	var cost congest.Result
	// One flat list sorted by source, searched per node, as notifyAll's.
	reqs := make([]congest.Message, 0, len(sources))
	for _, s := range sources {
		if s != tree.Root {
			reqs = append(reqs, ownerMsg(kindSampleRequest, s))
		}
	}
	if len(reqs) > 0 { // walks from the root need no request
		slices.SortFunc(reqs, func(a, b congest.Message) int { return cmp.Compare(a.W[0], b.W[0]) })
		byOwner := func(m congest.Message, u graph.NodeID) int { return cmp.Compare(graph.NodeID(m.W[0]), u) }
		_, res, err := congest.Upcast(w.net, tree, func(u graph.NodeID) []congest.Message {
			lo, _ := slices.BinarySearchFunc(reqs, u, byOwner)
			hi, _ := slices.BinarySearchFunc(reqs, u+1, byOwner)
			return reqs[lo:hi]
		})
		cost.Add(res)
		if err != nil {
			return cost, fmt.Errorf("core: sample-destination requests: %w", err)
		}
	}
	res, err := congest.Broadcast(w.net, tree, []congest.Message{ownerMsg(kindSampleAnnounce, sources[0])}, nil)
	cost.Add(res)
	if err != nil {
		return cost, fmt.Errorf("core: sample-destination announce: %w", err)
	}
	return cost, nil
}

// callWalk is one walk of the walk driver's current call (Walker.walks):
// at is its source, and after stitching its tail's start; the tail's
// steps, walk ID and destination (None until its token ends) follow.
type callWalk struct {
	walkID int64
	at     graph.NodeID
	steps  int32
	dest   graph.NodeID
}

// beginCall lists the call's walks, one per source, in walk order.
func (w *Walker) beginCall(sources []graph.NodeID) {
	w.walks = w.walks[:0]
	for _, s := range sources {
		w.walks = append(w.walks, callWalk{at: s})
	}
}

// walksAt counts the call's walks at v: before stitching, the walks that
// start at v, which Phase 1 adds to v's inventory (Lemma 2.6's "+k").
func (w *Walker) walksAt(v graph.NodeID) int {
	n := 0
	for i := range w.walks {
		if w.walks[i].at == v {
			n++
		}
	}
	return n
}

// finish completes every walk's remaining steps (its tail in w.walks) by
// simultaneous token forwarding, in O(max tail + congestion) rounds
// instead of the sum, appends each tail to c.Walks[i] as its last
// segment, then notifies the sources. A tail whose token vanished (lost to
// a fault) fails the batch.
func (w *Walker) finish(c *walkCall) error {
	for i := range w.walks {
		cw := &w.walks[i]
		cw.walkID, cw.dest = w.st.newWalkID(cw.at), graph.None
	}
	w.tok = tokenProto{w: w, tails: true}
	res, err := w.net.Run(&w.tok)
	c.Cost.Add(res)
	c.shared.Tail = res.Rounds
	if err != nil {
		return err
	}
	for i, cw := range w.walks {
		if cw.dest == graph.None {
			return fmt.Errorf("core: token of walk %d did not complete", i)
		}
		wr := c.Walks[i]
		wr.Segments = append(wr.Segments, Segment{Start: cw.at, End: cw.dest, WalkID: cw.walkID, Length: int(cw.steps)})
		wr.Destination = cw.dest
		c.Destinations[i] = cw.dest
	}
	return w.notifyAll(c)
}

// naiveMany sets up the naive k-walk (the k+ℓ regime): every walk is one
// ℓ-step tail from its source. The k one-segment lists are carved from
// one slab.
func (w *Walker) naiveMany(c *walkCall, sources []graph.NodeID, ell int) {
	segs := make([]Segment, len(sources))
	for i, s := range sources {
		*c.Walks[i] = WalkResult{Source: s, Destination: s, Length: ell, Naive: true, Segments: segs[i : i : i+1]}
		w.walks[i].steps = int32(ell)
	}
}

// notifyAll tells every walk's source its destination in O(k + D) rounds.
// The destinations upcast their (walk, dest) reports to the root,
// pipelined; the root then floods down, pipelined, only the reports whose
// source is some other node, since it is itself the source of the rest.
// When every walk starts at the root, as in the mixing-time estimator and
// the spanning tree, no flood runs.
func (w *Walker) notifyAll(c *walkCall) error {
	root := w.tree.Root
	// One flat list, stable-sorted by destination: each node's reports go
	// up in walk order.
	byDest := make([]congest.Message, len(c.Walks))
	for i, wr := range c.Walks {
		last := wr.Segments[len(wr.Segments)-1]
		byDest[i] = destReport{
			walkID:     last.WalkID,
			dest:       wr.Destination,
			deg:        int32(w.g.Degree(wr.Destination)),
			rootSource: wr.Source == root,
		}.msg()
	}
	slices.SortStableFunc(byDest, func(a, b congest.Message) int {
		return cmp.Compare(readDestReport(&a).dest, readDestReport(&b).dest)
	})
	reports, res, err := congest.Upcast(w.net, w.tree, func(u graph.NodeID) []congest.Message {
		// All n nodes ask for their reports, so the lookup is one search
		// over byDest: a single decode when there is one walk.
		lo := sort.Search(len(byDest), func(i int) bool { return readDestReport(&byDest[i]).dest >= u })
		hi := lo
		for hi < len(byDest) && readDestReport(&byDest[hi]).dest == u {
			hi++
		}
		return byDest[lo:hi]
	})
	c.Cost.Add(res)
	c.shared.Report = res.Rounds
	if err != nil {
		return err
	}
	if len(reports) != len(c.Walks) {
		return fmt.Errorf("core: %d of %d destination reports arrived", len(reports), len(c.Walks))
	}
	flood := slices.DeleteFunc(reports, func(m congest.Message) bool { return readDestReport(&m).rootSource })
	if len(flood) == 0 {
		return nil
	}
	res, err = congest.Broadcast(w.net, w.tree, flood, nil)
	c.Cost.Add(res)
	c.shared.Report += res.Rounds
	return err
}
