package core

import (
	"context"
	"fmt"
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
	// FromRefill marks segments minted by GET-MORE-WALKS; they are
	// retraced backward through the recorded token-count flows of the
	// batch identified by Batch, instead of by forward hop replay.
	FromRefill bool
	Batch      int64
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

// Walker runs the paper's walk algorithms over one simulated network. A
// Walker may run many walks; unused short-walk coupons persist between
// walks exactly as in MANY-RANDOM-WALKS (Phase 1 provisions once, Phase 2
// stitches per walk and refills on demand). The inventory outlives a
// change of λ too: a call whose λ is below twice the inventory's stitches
// with the inventory's λ, which keeps Theorem 2.8's O(λ + kℓD/λ) rounds
// within a factor of 2, so the doubling phases of RandomSpanningTree
// share one Phase 1 until λ doubles (see ensurePhase1).
//
// A Walker is NOT safe for concurrent use: its per-node netState is one
// shared simulation, and interleaving two walks would corrupt coupon
// inventories and flow ledgers. Every exported method holds an atomic
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

	// sampleFor is the connector SAMPLE-DESTINATION samples for; offer,
	// keep and take are its per-node steps (sampledest.go), bound once per
	// walker so that a stitch allocates no closure.
	sampleFor graph.NodeID
	offer     func(graph.NodeID) congest.Message
	keep      func(u graph.NodeID, acc, child *congest.Message)
	take      func(graph.NodeID, *congest.Message)

	// gmwOut[v] is node v's (neighbor, arrival step) aggregation scratch
	// for GET-MORE-WALKS token processing, reused across refills. It is
	// per-node (not one shared buffer) because several nodes process token
	// bundles in the same round, which under sharded execution means
	// concurrently; lazily sized on the first refill.
	gmwOut [][]gmwFlow

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
	return w
}

// NewWalkerOn builds a Walker over an existing simulated network. The
// caller controls the network's seed (NewNetwork or Network.Reseed);
// walker state (coupons, flow ledgers, walk IDs) starts fresh. This is the
// pooling constructor: distwalk.Service builds one Walker per worker
// network, once, and Resets it per request (see Reset).
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
// — empty coupon inventories, flow ledgers and walk-ID counters, and no
// BFS tree — while keeping every slab's capacity, and installs prm as the
// walker's parameters. It re-reads the network's graph, so a walker
// survives Network.Reshape: its slabs are sized by the node count, which
// a reshape keeps. Any previously returned Tree is invalidated (its
// arrays are recycled by the next tree build).
//
// This is the warm-pooling half of NewWalkerOn: distwalk.Service keeps one
// Walker per worker and Resets it per request instead of reallocating, so
// sequential requests run allocation-free in steady state. Combined with
// Network.Reseed the execution stays bit-identical to a fresh walker on a
// fresh network — determinism is a function of (graph, seed, request),
// never of what the walker served before or which graph it served it on.
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
func (w *Walker) SingleRandomWalk(source graph.NodeID, ell int) (*WalkResult, error) {
	if err := w.acquire(); err != nil {
		return nil, err
	}
	defer w.release()
	res, err := w.singleRandomWalk(source, ell)
	if err != nil {
		return nil, w.faultize(err)
	}
	return res, nil
}

func (w *Walker) singleRandomWalk(source graph.NodeID, ell int) (*WalkResult, error) {
	if err := w.checkNode(source); err != nil {
		return nil, err
	}
	if err := CheckLength(ell); err != nil {
		return nil, err
	}
	out := &WalkResult{Source: source, Destination: source, Length: ell}
	if ell == 0 {
		return out, nil
	}
	if w.g.N() == 1 {
		return nil, fmt.Errorf("%w: cannot walk on a single-node graph", ErrGraphTooSmall)
	}
	treeRes, err := w.ensureTree(source)
	if err != nil {
		return nil, err
	}
	out.Cost.Add(treeRes)
	out.Breakdown.TreeBuild = treeRes.Rounds

	diam := w.tree.Height
	if diam < 1 {
		diam = 1
	}
	lam := w.prm.lambda(ell, diam, w.g.N())
	out.Lambda = lam

	if !canStitch(ell, lam) {
		out.Naive = true
		if err := w.naiveTail(out, source, ell); err != nil {
			return nil, err
		}
		return out, w.report(out)
	}

	p1, err := w.ensurePhase1(lam, map[graph.NodeID]int{source: 1})
	if err != nil {
		return nil, err
	}
	out.Cost.Add(p1)
	out.Breakdown.Phase1 = p1.Rounds
	lam = w.lambda
	out.Lambda = lam
	// Every stitched segment is at least λ long and leaves at least 2λ
	// steps, so the walk has at most ℓ/λ segments, tail included.
	out.Segments = make([]Segment, 0, ell/lam)

	if err := w.stitch(out, source, ell, lam); err != nil {
		return nil, err
	}
	return out, w.report(out)
}

// stitch runs Phase 2: repeatedly sample an unused short walk at the
// current connector and jump to its destination, until fewer than 2λ steps
// remain; then finish naively.
func (w *Walker) stitch(out *WalkResult, source graph.NodeID, ell, lam int) error {
	cur, completed, err := w.stitchSegments(out, source, ell, lam, false, graph.None)
	if err != nil {
		return err
	}
	return w.naiveTail(out, cur, ell-completed)
}

// canStitch is Phase 2's loop condition: a short walk (up to 2λ−1 steps)
// is stitched only while at least 2λ steps remain. It is also the one
// naive-fallback rule of both walkers: a walk with !canStitch(ℓ, λ) never
// stitches, Phase 1 would buy nothing, and the walk is the naive one
// (Theorem 2.5's ℓ term; Theorem 2.8's k+ℓ term for k walks).
func canStitch(remaining, lam int) bool { return 2*lam <= remaining }

// stitchSegments runs the stitching loop of Phase 2 and stops when fewer
// than 2λ steps remain, returning the final connector and completed step
// count. The ≤2λ-step naive tail is left to the caller: SINGLE-RANDOM-WALK
// runs it immediately, MANY-RANDOM-WALKS defers all k tails and runs them
// concurrently (sequential tails of Θ(λ)=Θ(√(kℓD)) steps each would cost
// k√(kℓD) rounds and break Theorem 2.8's bound). announced says the
// source's first stitch was announced already; next, when a node, is the
// source of the walk stitched after this one, whose announcement the last
// result carries.
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
			Start:      cur,
			End:        pick.dest,
			WalkID:     pick.walkID,
			Length:     int(pick.length),
			FromRefill: pick.refill,
			Batch:      pick.batch,
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

// naiveTail walks the remaining steps by token forwarding and records the
// final segment and destination.
func (w *Walker) naiveTail(out *WalkResult, from graph.NodeID, steps int) error {
	dest, wid, res, err := w.naiveSegment(from, steps)
	out.Cost.Add(res)
	out.Breakdown.Tail += res.Rounds
	if err != nil {
		return err
	}
	out.Segments = append(out.Segments, Segment{
		Start:  from,
		End:    dest,
		WalkID: wid,
		Length: steps,
	})
	out.Destination = dest
	return nil
}

// report notifies the source of the destination over the BFS tree.
func (w *Walker) report(out *WalkResult) error {
	last := out.Segments[len(out.Segments)-1]
	res, err := w.reportToSource(w.tree, out.Destination, last.WalkID)
	out.Cost.Add(res)
	out.Breakdown.Report += res.Rounds
	return err
}

// NaiveWalk runs the paper's O(ℓ)-round baseline: pure token forwarding
// plus the destination report. It shares the Walker's BFS tree so the
// comparison with SINGLE-RANDOM-WALK is infrastructure-for-infrastructure.
func (w *Walker) NaiveWalk(source graph.NodeID, ell int) (*WalkResult, error) {
	if err := w.acquire(); err != nil {
		return nil, err
	}
	defer w.release()
	res, err := w.naiveWalk(source, ell)
	if err != nil {
		return nil, w.faultize(err)
	}
	return res, nil
}

func (w *Walker) naiveWalk(source graph.NodeID, ell int) (*WalkResult, error) {
	if err := w.checkNode(source); err != nil {
		return nil, err
	}
	if err := CheckLength(ell); err != nil {
		return nil, err
	}
	out := &WalkResult{Source: source, Destination: source, Length: ell, Naive: true}
	if ell == 0 {
		return out, nil
	}
	if w.g.N() == 1 {
		return nil, fmt.Errorf("%w: cannot walk on a single-node graph", ErrGraphTooSmall)
	}
	treeRes, err := w.ensureTree(source)
	if err != nil {
		return nil, err
	}
	out.Cost.Add(treeRes)
	out.Breakdown.TreeBuild = treeRes.Rounds
	if err := w.naiveTail(out, source, ell); err != nil {
		return nil, err
	}
	return out, w.report(out)
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

// ensurePhase1 is the one provisioning rule of both walkers; afterwards
// w.lambda is the λ the call stitches, refills and reports with. extra
// names the walks the call starts at each source, which Lemma 2.6 adds to
// the sources' inventories (its "+k"). A call whose λ is within a factor
// of 2 above the current inventory's (λ/2 < λ_inv ≤ λ) keeps that
// inventory. Its Phase 1 runs only if a source holds fewer unused walks
// of its own than it starts (a source that ran dry would fall back to
// GET-MORE-WALKS, whose segments retrace backward at many times the
// cost), and then only tops up: every node starts just the walks it
// lacks to hold its η·deg(v) plus extras again, which replaces the walks
// earlier stitches used at Phase 1's round cost. Any other call (no
// inventory, λ ≥ 2λ_inv or λ < λ_inv) re-provisions at λ. The flow
// ledgers of earlier refills survive re-provisioning, so previously
// returned walks remain retraceable.
func (w *Walker) ensurePhase1(lam int, extra map[graph.NodeID]int) (congest.Result, error) {
	topUp := w.lambda > 0 && w.lambda <= lam && lam < 2*w.lambda
	if topUp {
		lacks := false
		for s, n := range extra {
			lacks = lacks || n > int(w.st.owned[s])
		}
		if !lacks {
			return congest.Result{}, nil
		}
	} else {
		w.st.provisionCoupons(w.g, w.prm)
		w.lambda = lam
	}
	res, err := w.net.Run(&phase1Proto{w: w, lambda: int32(w.lambda), extra: extra, topUp: topUp})
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
	walk := walkKey(w.net.SeedMix(), t.walkID)
	for rem := t.remaining; rem > 0; rem-- {
		if port := w.hopPort(v, walk, t.total-rem); port >= 0 {
			return port, rem - 1
		}
		// stayed: one walk step, no message
	}
	return -1, 0
}

// walkKey folds the network's mixed seed and a walk ID into the key its
// steps draw from, and hopKey adds step j. Each component goes through
// the mixer on its own, so no (walk, step) pair aliases another: a packed
// key such as walkID + j<<40 would give (owner v, step j) the draw of
// (owner v+256, step j−1), because the owner sits in the ID's bits 32–63.
func walkKey(seedMix uint64, walkID int64) uint64 { return rng.Mix64(seedMix ^ uint64(walkID)) }

func hopKey(walk uint64, j int32) uint64 { return rng.Mix64(walk ^ uint64(uint32(j))) }

// hopPort is step j of the walk keyed walk at node v: the port it leaves v
// by, weight-proportional (uniform on unweighted graphs), or -1 for a
// Metropolis-Hastings stay. It is a function of (seed, walk ID, j) and the
// node's adjacency alone — what the node "remembers" of every hop it
// forwarded, without storing any (Section 2.2's replay recomputes it).
func (w *Walker) hopPort(v graph.NodeID, walk uint64, j int32) int {
	if w.prm.Metropolis {
		return w.g.MHPortAt(v, hopKey(walk, j))
	}
	return w.g.PortAt(v, hopKey(walk, j))
}

func (w *Walker) checkNode(v graph.NodeID) error {
	if v < 0 || int(v) >= w.g.N() {
		return fmt.Errorf("%w: node %d not in [0,%d)", ErrBadNode, v, w.g.N())
	}
	return nil
}
