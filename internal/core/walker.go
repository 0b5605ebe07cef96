package core

import (
	"context"
	"fmt"
	"sync/atomic"

	"distwalk/internal/congest"
	"distwalk/internal/graph"
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
	// Phase1 is the short-walk preparation (charged when (re)provisioned).
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
	// Lambda is the short-walk base length λ used.
	Lambda int
	// Naive reports that the walk fell back to pure token forwarding
	// because 2λ > ℓ (short walks would overshoot).
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
// stitches per walk and refills on demand).
//
// A Walker is NOT safe for concurrent use: its per-node netState is one
// shared simulation, and interleaving two walks would corrupt coupon
// inventories and hop trails. Every exported method holds an atomic in-use
// flag for its duration and returns an error wrapping ErrConcurrentUse if
// another call is already in flight, instead of corrupting state. For
// concurrent workloads use distwalk.Service, which multiplexes requests
// over a pool of independent walkers.
type Walker struct {
	g   *graph.G
	net *congest.Network
	prm Params
	st  *netState

	tree     *congest.Tree
	spare    *congest.Tree // retired by Reset; its slabs are recycled by ensureTree
	lambda   int           // λ of the current coupon inventory (0 = none)
	prepared bool

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
	return &Walker{
		g:   g,
		net: congest.NewNetwork(g, seed),
		prm: prm,
		st:  newNetState(g.N()),
	}, nil
}

// NewWalkerOn builds a Walker over an existing simulated network. The
// caller controls the network's seed (NewNetwork or Network.Reseed);
// walker state (coupons, hop trail, walk IDs) starts fresh. This is the
// pooling constructor: distwalk.Service keeps one Network per worker and
// builds a throwaway Walker on it per request.
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
	return &Walker{g: g, net: net, prm: prm, st: newNetState(g.N())}, nil
}

// SetContext installs ctx on the underlying network: any simulated run
// started afterwards aborts (with an error matching context.Canceled or
// context.DeadlineExceeded) once ctx is done. Pass nil to clear.
func (w *Walker) SetContext(ctx context.Context) { w.net.SetContext(ctx) }

// Reset returns the walker to the observable state of a freshly built one
// — empty coupon inventories and walk-ID counters, no BFS tree, and the
// hop trail off and empty (see KeepTrail) — while keeping every slab's
// capacity, and installs prm as the walker's parameters. Any previously
// returned Tree is invalidated (its arrays are recycled by the next tree
// build).
//
// This is the warm-pooling half of NewWalkerOn: distwalk.Service keeps one
// Walker per worker and Resets it per request instead of reallocating, so
// sequential requests run allocation-free in steady state. Combined with
// Network.Reseed the execution stays bit-identical to a fresh walker on a
// fresh network — determinism is a function of (graph, seed, request),
// never of what the walker served before.
func (w *Walker) Reset(prm Params) error {
	if err := w.acquire(); err != nil {
		return err
	}
	defer w.release()
	if err := prm.validate(); err != nil {
		return err
	}
	w.prm = prm
	w.st.reset()
	if w.tree != nil {
		w.spare = w.tree
		w.tree = nil
	}
	w.lambda = 0
	w.prepared = false
	return nil
}

// KeepTrail makes the walker keep its hop trail — every short walk's next
// hop at every node it leaves, and the GET-MORE-WALKS flow counts — until
// the next Reset. The trail is what Regenerate and RegenerateMany replay
// and nothing else reads, so a fresh or Reset walker keeps none: walks
// are destination-only unless the caller says here, before the first walk
// it may regenerate, that it wants more. Keeping the trail changes no
// random draw, message or cost. Once any walk since the last Reset ran
// without it, regeneration fails with ErrNoRegen; calling KeepTrail
// afterwards does not repair that. Like SetContext it is a plain setter,
// for the goroutine that drives the walker to call between walks.
func (w *Walker) KeepTrail() { w.st.trail = true }

// walkRun runs a protocol that moves walk tokens — the runs whose hops the
// trail records — and notes the gap when the trail is off.
func (w *Walker) walkRun(p congest.Proto) (congest.Result, error) {
	if !w.st.trail {
		w.st.trailGap = true
	}
	return w.net.Run(p)
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

	if 2*lam > ell {
		// Short walks would overshoot ℓ: the naive walk is optimal here
		// (cf. MANY-RANDOM-WALKS, which falls back when λ > ℓ).
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

	if err := w.stitch(out, source, ell, lam); err != nil {
		return nil, err
	}
	return out, w.report(out)
}

// stitch runs Phase 2: repeatedly sample an unused short walk at the
// current connector and jump to its destination, until fewer than 2λ steps
// remain; then finish naively.
func (w *Walker) stitch(out *WalkResult, source graph.NodeID, ell, lam int) error {
	cur, completed, err := w.stitchSegments(out, source, ell, lam)
	if err != nil {
		return err
	}
	return w.naiveTail(out, cur, ell-completed)
}

// stitchSegments runs the stitching loop of Phase 2 and stops when fewer
// than 2λ steps remain, returning the final connector and completed step
// count. The ≤2λ-step naive tail is left to the caller: SINGLE-RANDOM-WALK
// runs it immediately, MANY-RANDOM-WALKS defers all k tails and runs them
// concurrently (sequential tails of Θ(λ)=Θ(√(kℓD)) steps each would cost
// k√(kℓD) rounds and break Theorem 2.8's bound).
func (w *Walker) stitchSegments(out *WalkResult, source graph.NodeID, ell, lam int) (graph.NodeID, int, error) {
	cur := source
	completed := 0
	for completed <= ell-2*lam {
		pick, cost, err := w.sampleDestination(cur)
		out.Cost.Add(cost)
		out.Breakdown.Stitch += cost.Rounds
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
			pick, cost, err = w.sampleDestination(cur)
			out.Cost.Add(cost)
			out.Breakdown.Stitch += cost.Rounds
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
	}
	return cur, completed, nil
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

// ensurePhase1 provisions short walks of base length lam if the current
// inventory was built for a different λ (or not at all); extra adds walks
// at the upcoming walks' sources (the "+k" of Lemma 2.6). A kept hop trail
// retains the records of earlier inventories, so previously returned walks
// remain retraceable.
func (w *Walker) ensurePhase1(lam int, extra map[graph.NodeID]int) (congest.Result, error) {
	if w.prepared && w.lambda == lam {
		return congest.Result{}, nil
	}
	w.st.clearCoupons()
	res, err := w.walkRun(&phase1Proto{w: w, lambda: int32(lam), extra: extra})
	if err != nil {
		return res, fmt.Errorf("core: phase 1: %w", err)
	}
	w.prepared = true
	w.lambda = lam
	return res, nil
}

// advanceToken draws walk steps at the executing node until the token
// moves or finishes in place. It returns the port the token leaves by (an
// index into the node's Neighbors) and the steps remaining after the
// move, or (-1, 0) if the token's steps ran out at the current node. For
// the simple walk a step always moves; with Params.Metropolis stay steps
// are consumed locally (no message, no round — a token that stays sends
// nothing).
func (w *Walker) advanceToken(ctx *congest.Ctx, remaining int32) (int, int32) {
	v := ctx.Node()
	for remaining > 0 {
		if !w.prm.Metropolis {
			// graph.StepPort samples edges weight-proportionally (uniform on
			// unweighted graphs); err is impossible here, v has degree >= 1.
			port, _ := w.g.StepPort(ctx.RNG(), v)
			return port, remaining - 1
		}
		port, err := w.g.MHStepPort(ctx.RNG(), v)
		if err != nil || port >= 0 {
			return port, remaining - 1
		}
		remaining-- // stayed: one walk step, no message
	}
	return -1, 0
}

// recordHop records that token t leaves the executing node by port with
// rem steps left after the move: hop t.total−rem−1 of its walk. With the
// trail off the neighbor behind the port is never looked up.
func (w *Walker) recordHop(ctx *congest.Ctx, t walkToken, rem int32, port int) {
	if w.st.trail {
		w.st.recordHop(t.walkID, t.total-rem-1, ctx.Neighbors()[port].To)
	}
}

func (w *Walker) checkNode(v graph.NodeID) error {
	if v < 0 || int(v) >= w.g.N() {
		return fmt.Errorf("%w: node %d not in [0,%d)", ErrBadNode, v, w.g.N())
	}
	return nil
}
