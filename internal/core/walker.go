package core

import (
	"context"
	"fmt"
	"math/bits"
	"sync/atomic"

	"distwalk/internal/congest"
	"distwalk/internal/graph"
	"distwalk/internal/rng"
)

// Segment is one stitched piece of a completed walk: a short walk (or the
// final naive tail) from Start to End of the given length.
type Segment struct {
	Start  graph.NodeID
	End    graph.NodeID
	WalkID int64
	Length int
}

// Breakdown attributes rounds to the stages of SINGLE-RANDOM-WALK.
type Breakdown struct {
	// TreeBuild is the BFS-tree construction (charged to the first walk
	// from a given source).
	TreeBuild int
	// Phase1 is the short-walk preparation (charged when provisioned or
	// topped up; see Walker).
	Phase1 int
	// Stitch covers all SAMPLE-DESTINATION sweeps.
	Stitch int
	// Refill covers GET-MORE-WALKS invocations.
	Refill int
	// Tail is the final ≤2λ-step naive completion (or the whole walk when
	// the naive fallback applies).
	Tail int
	// Report is the destination-to-source notification.
	Report int
}

// WalkResult describes one completed ℓ-step walk.
type WalkResult struct {
	Source      graph.NodeID
	Destination graph.NodeID
	Length      int
	// Lambda is the short-walk base length λ the walk stitched with: the
	// kept inventory's when one was kept (see Walker), else the call's own.
	Lambda int
	// Naive reports that the walk fell back to pure token forwarding
	// because no stitch was possible (2λ > ℓ).
	Naive bool
	// Refills counts GET-MORE-WALKS invocations during this walk.
	Refills int
	// Segments lists the stitched pieces in walk order.
	Segments []Segment
	// Cost is the total simulated cost of this walk.
	Cost congest.Result
	// Breakdown attributes Cost.Rounds to algorithm stages.
	Breakdown Breakdown
}

// Walker runs the paper's walk algorithms over one simulated network. Its
// one walk driver is MANY-RANDOM-WALKS (manyRandomWalks):
// SINGLE-RANDOM-WALK is its k = 1 case with Theorem 2.5's λ = √(ℓD), and
// NaiveWalk its naive branch with k = 1. A Walker may run many walks;
// unused short-walk coupons persist between walks exactly as in
// MANY-RANDOM-WALKS (Phase 1 provisions once, Phase 2 stitches per walk
// and refills on demand). The inventory outlives a change of λ too: a
// call whose λ is below twice the inventory's stitches with the
// inventory's λ, which keeps Theorem 2.8's O(λ + kℓD/λ) rounds
// within a factor of 2, so the doubling phases of RandomSpanningTree
// share one Phase 1 until λ doubles (see ensurePhase1).
//
// A Walker is NOT safe for concurrent use: its per-node netState is one
// shared simulation, and interleaving two walks would corrupt coupon
// inventories and walk-ID counters. Every exported method holds an atomic
// in-use flag for its duration and returns an error wrapping
// ErrConcurrentUse if another call is already in flight, instead of
// corrupting state. For concurrent workloads use distwalk.Service, which
// multiplexes requests over a pool of independent walkers.
type Walker struct {
	g   *graph.G
	net *congest.Network
	prm Params
	st  *netState

	tree   *congest.Tree
	spare  *congest.Tree // retired by Reset; its slabs are recycled by ensureTree
	lambda int           // λ of the current coupon inventory (0 = none)

	// sampleFor is the connector SAMPLE-DESTINATION samples for and
	// sampleKey the key its draws fold their node into (stitchKey); offer,
	// keep and take are its per-node steps (sampledest.go), bound once per
	// walker so that a stitch allocates no closure. stitches counts the
	// samples since Reset: every node can, because every result is
	// broadcast.
	sampleFor graph.NodeID
	sampleKey uint64
	stitches  uint64
	offer     func(graph.NodeID) congest.Message
	keep      func(u graph.NodeID, acc, child *congest.Message)
	take      func(graph.NodeID, *congest.Message)

	// walks lists the current call's k walks (beginCall), and tok is the
	// walk-token protocol value its Phase 1, refills and tails run as.
	walks []callWalk
	tok   tokenProto

	// requests and reports are the walk driver's request list
	// (requestAll) and destination reports (notifyAll), each sorted by the
	// node that sends it; requestsAt and reportsAt, bound once like offer,
	// give a node its share. regen is the replay protocol value
	// (regenerateMany), whose segment lists are kept too.
	requests, reports     []congest.Message
	requestsAt, reportsAt func(graph.NodeID) []congest.Message
	regen                 regenProto

	busy atomic.Bool // in-use flag; see ErrConcurrentUse
}

// NewWalker builds a Walker over g with the given parameters; seed drives
// all randomness (same seed, same execution).
func NewWalker(g *graph.G, seed uint64, prm Params) (*Walker, error) {
	if g == nil || g.N() == 0 {
		return nil, fmt.Errorf("%w: walker needs a non-empty graph", ErrGraphTooSmall)
	}
	if err := prm.validate(); err != nil {
		return nil, err
	}
	return walkerOver(congest.NewNetwork(g, seed), prm), nil
}

// walkerOver builds a walker with fresh state over net and binds
// SAMPLE-DESTINATION's per-node steps once.
func walkerOver(net *congest.Network, prm Params) *Walker {
	w := &Walker{g: net.Graph(), net: net, prm: prm, st: newNetState(net.Graph().N())}
	w.offer, w.keep, w.take = w.offerCoupon, w.keepCandidate, w.takeResult
	w.requestsAt, w.reportsAt = w.requestsOf, w.reportsOf
	w.regen.w = w
	return w
}

// NewWalkerOn builds a Walker over an existing simulated network. The
// caller controls the network's seed (NewNetwork or Network.Reseed), which
// every draw of the walker keys on; walker state (coupons, walk IDs, the
// stitch count) starts fresh. This is the pooling constructor:
// distwalk.Service builds one Walker per worker network, once, and Resets
// it per request (see Reset).
func NewWalkerOn(net *congest.Network, prm Params) (*Walker, error) {
	if net == nil {
		return nil, fmt.Errorf("core: NewWalkerOn needs a non-nil network")
	}
	g := net.Graph()
	if g == nil || g.N() == 0 {
		return nil, fmt.Errorf("%w: walker needs a non-empty graph", ErrGraphTooSmall)
	}
	if err := prm.validate(); err != nil {
		return nil, err
	}
	return walkerOver(net, prm), nil
}

// SetContext installs ctx on the underlying network: any simulated run
// started afterwards aborts (with an error matching context.Canceled or
// context.DeadlineExceeded) once ctx is done. Pass nil to clear.
func (w *Walker) SetContext(ctx context.Context) { w.net.SetContext(ctx) }

// Reset returns the walker to the observable state of a freshly built one
// — empty coupon inventories, walk-ID and stitch counters, and no BFS
// tree — while keeping every slab's capacity, and installs prm as the
// walker's parameters. It re-reads the network's graph, so a walker
// survives Network.Reshape: its slabs are sized by the node count, which
// a reshape keeps. Any previously returned Tree is invalidated (its
// arrays are recycled by the next tree build).
//
// This is the warm-pooling half of NewWalkerOn: distwalk.Service keeps one
// Walker per worker and Resets it per request instead of reallocating, so
// a warm call allocates per call, not per walk, phase or segment: 2
// objects (the result and its segment list) for a SingleRandomWalk or
// NaiveWalk on Torus(48,48) (TestSingleWalkAllocs), 5 for eight walks of
// ℓ = 1 024 on Torus(16,16) (TestManyWalksAllocs) and 4 for a
// RegenerateMany of any number of walks (TestRegenerateManyAllocs).
// Every draw is keyed by the network's seed and by what it decides, walk
// IDs and the stitch count among them, so combined with Network.Reseed
// the execution stays bit-identical to a fresh walker on a fresh network
// — determinism is a function of (graph, seed, request), never of what
// the walker served before or which graph it served it on.
func (w *Walker) Reset(prm Params) error {
	if err := w.acquire(); err != nil {
		return err
	}
	defer w.release()
	if err := prm.validate(); err != nil {
		return err
	}
	w.prm = prm
	w.g = w.net.Graph()
	w.st.reset()
	w.stitches = 0
	if w.tree != nil {
		w.spare = w.tree
		w.tree = nil
	}
	w.lambda = 0
	return nil
}

// acquire claims the walker for one exported call; it fails instead of
// blocking because overlapping calls are a caller bug, not a scheduling
// problem.
func (w *Walker) acquire() error {
	if w.busy.Swap(true) {
		return fmt.Errorf("%w (overlapping call)", ErrConcurrentUse)
	}
	return nil
}

func (w *Walker) release() { w.busy.Store(false) }

// Graph returns the underlying topology.
func (w *Walker) Graph() *graph.G { return w.g }

// Network exposes the simulator (for metric access in the harness).
func (w *Walker) Network() *congest.Network { return w.net }

// Tree returns the walker's current BFS tree (nil before the first walk).
// Applications reuse it for their own broadcasts and convergecasts.
func (w *Walker) Tree() *congest.Tree { return w.tree }

// Prepare builds the BFS tree rooted at source (a no-op if it already is),
// returning the round cost. Applications call it when they need tree
// primitives before the first walk.
func (w *Walker) Prepare(source graph.NodeID) (congest.Result, error) {
	if err := w.acquire(); err != nil {
		return congest.Result{}, err
	}
	defer w.release()
	if err := w.checkNode(source); err != nil {
		return congest.Result{}, err
	}
	res, err := w.ensureTree(source)
	return res, w.faultize(err)
}

// SingleRandomWalk samples the destination of an ℓ-step simple random walk
// from source (Algorithm 1, SINGLE-RANDOM-WALK) and returns the walk's
// composition and exact simulated cost. The returned destination is an
// exact sample of the ℓ-step walk distribution (Theorem 2.5: Las Vegas).
// It is MANY-RANDOM-WALKS with k = 1 and Theorem 2.5's λ = √(ℓD) (see
// single).
func (w *Walker) SingleRandomWalk(source graph.NodeID, ell int) (*WalkResult, error) {
	if err := w.acquire(); err != nil {
		return nil, err
	}
	defer w.release()
	return w.single(source, ell, func(diam int) int { return w.prm.lambda(ell, diam, w.g.N()) })
}

// NaiveWalk runs the paper's O(ℓ)-round baseline: pure token forwarding
// plus the destination report. It shares the Walker's BFS tree so the
// comparison with SINGLE-RANDOM-WALK is infrastructure-for-infrastructure.
// It is the naive branch of MANY-RANDOM-WALKS with k = 1.
func (w *Walker) NaiveWalk(source graph.NodeID, ell int) (*WalkResult, error) {
	if err := w.acquire(); err != nil {
		return nil, err
	}
	defer w.release()
	return w.single(source, ell, nil)
}

// single runs one walk from source as the walk driver's k = 1 call
// (manyRandomWalks) with the λ rule lambda, nil for the naive walk. Only
// the returned walk is allocated here: the call's per-walk storage lives
// on the stack. The stages the driver shares among its walks are folded
// into the walk's Cost and Breakdown: the opening announce is a stitch,
// and the tree, Phase 1, the tail and the destination report are the
// walk's own.
func (w *Walker) single(source graph.NodeID, ell int, lambda func(diam int) int) (*WalkResult, error) {
	wr := new(WalkResult)
	sources, walks := [1]graph.NodeID{source}, [1]*WalkResult{wr}
	var dests [1]graph.NodeID
	c := walkCall{ManyResult: ManyResult{Destinations: dests[:], Walks: walks[:]}}
	if err := w.manyRandomWalks(&c, sources[:], ell, lambda); err != nil {
		return nil, w.faultize(err)
	}
	wr.Cost = c.Cost
	b, sh := &wr.Breakdown, c.shared
	b.TreeBuild, b.Phase1, b.Tail, b.Report = sh.TreeBuild, sh.Phase1, sh.Tail, sh.Report
	b.Stitch += sh.Stitch
	if c.NaiveFallback {
		wr.Lambda = c.ownLambda
	}
	return wr, nil
}

// canStitch is Phase 2's loop condition: a short walk (up to 2λ−1 steps)
// is stitched only while at least 2λ steps remain. It is also the one
// naive-fallback rule: a call with !canStitch(ℓ, λ) never stitches,
// Phase 1 would buy nothing, and its walks are naive ones (Theorem 2.5's
// ℓ term; Theorem 2.8's k+ℓ term for k walks).
func canStitch(remaining, lam int) bool { return 2*lam <= remaining }

// stitchSegments runs the stitching loop of Phase 2 and stops when fewer
// than 2λ steps remain, returning the final connector and completed step
// count. The ≤2λ-step naive tail is left to the caller, which defers all
// k tails and runs them concurrently (sequential tails of Θ(λ)=Θ(√(kℓD))
// steps each would cost k√(kℓD) rounds and break Theorem 2.8's bound).
// announced says the source's first stitch was announced already; next,
// when a node, is the source of the walk stitched after this one, whose
// announcement the last result carries.
func (w *Walker) stitchSegments(out *WalkResult, source graph.NodeID, ell, lam int, announced bool, next graph.NodeID) (graph.NodeID, int, error) {
	cur := source
	completed := 0
	for canStitch(ell-completed, lam) {
		slack := ell - 2*lam - completed
		pick, err := w.stitchOnce(out, cur, announced, slack, next)
		if err != nil {
			return cur, completed, err
		}
		if !pick.found {
			// The connector exhausted its coupons: GET-MORE-WALKS
			// (Algorithm 1, Phase 2 lines 7-9).
			gres, err := w.getMoreWalks(cur, ell, lam)
			out.Cost.Add(gres)
			out.Breakdown.Refill += gres.Rounds
			out.Refills++
			if err != nil {
				return cur, completed, err
			}
			pick, err = w.stitchOnce(out, cur, false, slack, next)
			if err != nil {
				return cur, completed, err
			}
			if !pick.found {
				return cur, completed, fmt.Errorf("core: no coupon at %d even after GET-MORE-WALKS", cur)
			}
		}
		out.Segments = append(out.Segments, Segment{
			Start:  cur,
			End:    pick.dest,
			WalkID: pick.walkID,
			Length: int(pick.length),
		})
		completed += int(pick.length)
		cur = pick.dest
		announced = true // the result just broadcast named cur
	}
	return cur, completed, nil
}

// stitchOnce runs one SAMPLE-DESTINATION at connector v, with the
// announce part unless v was announced already, and charges it to out.
func (w *Walker) stitchOnce(out *WalkResult, v graph.NodeID, announced bool, slack int, next graph.NodeID) (sampleResult, error) {
	tree := w.tree
	if !announced || w.prm.PerCallBFS {
		t, cost, err := w.announce(v)
		out.Cost.Add(cost)
		out.Breakdown.Stitch += cost.Rounds
		if err != nil {
			return sampleResult{}, err
		}
		tree = t
	}
	pick, cost, err := w.sample(tree, v, slack, next)
	out.Cost.Add(cost)
	out.Breakdown.Stitch += cost.Rounds
	return pick, err
}

// ensureTree (re)builds the BFS tree when the source changes; reuse across
// walks from the same source is free. A tree retired by Reset donates its
// slabs to the rebuild, so warm workers pay no tree allocation either.
func (w *Walker) ensureTree(source graph.NodeID) (congest.Result, error) {
	if w.tree != nil && w.tree.Root == source {
		return congest.Result{}, nil
	}
	tree, res, err := congest.BuildBFSTreeReuse(w.net, source, w.spare)
	if err != nil {
		return res, fmt.Errorf("core: %w", err)
	}
	w.spare = nil
	w.tree = tree
	return res, nil
}

// ensurePhase1 is the walk driver's one provisioning rule; afterwards
// w.lambda is the λ the call stitches, refills and reports with. The
// call's walks (w.walks) start at their sources, which Lemma 2.6 adds to
// the sources' inventories (its "+k"). A call whose λ is within a factor
// of 2 above the current inventory's (λ/2 < λ_inv ≤ λ) keeps that
// inventory. Its Phase 1 runs only if a source holds fewer unused walks
// of its own than it starts (a source that ran dry would fall back to
// GET-MORE-WALKS), and then only tops up: every node starts just the
// walks it lacks to hold its η·deg(v) plus extras again, which replaces
// the walks earlier stitches used at Phase 1's round cost. Any other call (no inventory,
// λ ≥ 2λ_inv or λ < λ_inv) re-provisions at λ. Walk IDs survive
// re-provisioning, so previously returned walks still regenerate.
func (w *Walker) ensurePhase1(lam int) (congest.Result, error) {
	topUp := w.lambda > 0 && w.lambda <= lam && lam < 2*w.lambda
	if topUp {
		lacks := false
		for _, c := range w.walks {
			lacks = lacks || w.walksAt(c.at) > int(w.st.owned[c.at])
		}
		if !lacks {
			return congest.Result{}, nil
		}
	} else {
		w.st.provisionCoupons(w.g, w.prm)
		w.lambda = lam
	}
	w.tok = tokenProto{w: w, lambda: int32(w.lambda), topUp: topUp}
	res, err := w.net.Run(&w.tok)
	if err != nil {
		w.lambda = 0 // the next call re-provisions the partial inventory
		return res, fmt.Errorf("core: phase 1: %w", err)
	}
	return res, nil
}

// advanceToken draws walk steps of token t at the executing node until it
// moves or finishes in place. It returns the port the token leaves by (an
// index into the node's Neighbors) and the steps remaining after the
// move, or (-1, 0) if the token's steps ran out at the current node. For
// the simple walk a step always moves; with Params.Metropolis stay steps
// are consumed locally (no message, no round — a token that stays sends
// nothing). Step j of the walk (j = total − remaining) draws from hopKey,
// so the node can recompute it later (see hopPort).
func (w *Walker) advanceToken(ctx *congest.Ctx, t walkToken) (int, int32) {
	v := ctx.Node()
	walk := walkKey(ctx.SeedMix(), t.walkID)
	for rem := t.remaining; rem > 0; rem-- {
		if port := w.hopPort(v, walk, t.total-rem); port >= 0 {
			return port, rem - 1
		}
		// stayed: one walk step, no message
	}
	return -1, 0
}

// Every random draw of the protocols is a pure function of the network's
// mixed seed and of what the draw decides, so any node can recompute any
// draw and no node keeps a random stream. A key folds its components one
// at a time: a packed key such as walkID + j<<40 would give (owner v,
// step j) the draw of (owner v+256, step j−1), because the owner sits in
// a walk ID's bits 32–63. Mix64 is a bijection, so two keys that differ
// only in their last component never coincide.

// fold mixes component x into key k.
func fold(k, x uint64) uint64 { return rng.Mix64(k ^ x) }

// walkKey folds the network's mixed seed and a walk ID into the key its
// steps draw from, and hopKey adds step j.
func walkKey(seedMix uint64, walkID int64) uint64 { return fold(seedMix, uint64(walkID)) }

func hopKey(walk uint64, j int32) uint64 { return fold(walk, uint64(uint32(j))) }

// lengthKey is the key of a Phase 1 walk's length draw: its hop key at
// step −1, which no hop takes.
func lengthKey(walk uint64) uint64 { return hopKey(walk, -1) }

// stitchKey keys the draws of the stitch-th SAMPLE-DESTINATION since
// Reset; a node folds itself in for its pick (offerCoupon), and then a
// child's candidate for each merge (keepCandidate). Walk IDs are
// non-negative, so bit 63 keeps the key off every walkKey.
func stitchKey(seedMix, stitch uint64) uint64 { return fold(seedMix, stitch|1<<63) }

// bounded maps the uniform 64-bit draw x to [0, n) by multiply-shift, as
// graph.PortAt does (bias below n/2⁶⁴).
func bounded(x, n uint64) uint64 {
	hi, _ := bits.Mul64(x, n)
	return hi
}

// hopPort is step j of the walk keyed walk at node v: the port it leaves v
// by, weight-proportional (uniform on unweighted graphs), or -1 for a
// Metropolis-Hastings stay. It is a function of (seed, walk ID, j) and the
// node's adjacency alone — what the node "remembers" of every hop it
// forwarded, without storing any (Section 2.2's replay recomputes it).
func (w *Walker) hopPort(v graph.NodeID, walk uint64, j int32) int {
	return w.portAt(v, hopKey(walk, j))
}

// portAt is one walk step at v drawn from x: the port it leaves v by, or
// -1 for a Metropolis-Hastings stay (and at an isolated node).
func (w *Walker) portAt(v graph.NodeID, x uint64) int {
	if w.prm.Metropolis {
		return w.g.MHPortAt(v, x)
	}
	return w.g.PortAt(v, x)
}

func (w *Walker) checkNode(v graph.NodeID) error {
	if v < 0 || int(v) >= w.g.N() {
		return fmt.Errorf("%w: node %d not in [0,%d)", ErrBadNode, v, w.g.N())
	}
	return nil
}
