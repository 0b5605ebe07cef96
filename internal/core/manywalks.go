package core

import (
	"cmp"
	"fmt"
	"slices"

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
// can stitch (2λ > ℓ, the rule SINGLE-RANDOM-WALK keeps) the k walks run as
// parallel naive tokens instead, with no Phase 1.
func (w *Walker) ManyRandomWalks(sources []graph.NodeID, ell int) (*ManyResult, error) {
	if err := w.acquire(); err != nil {
		return nil, err
	}
	defer w.release()
	res, err := w.manyRandomWalks(sources, ell)
	if err != nil {
		return nil, w.faultize(err)
	}
	return res, nil
}

func (w *Walker) manyRandomWalks(sources []graph.NodeID, ell int) (*ManyResult, error) {
	if len(sources) == 0 {
		return nil, fmt.Errorf("core: no sources")
	}
	for _, s := range sources {
		if err := w.checkNode(s); err != nil {
			return nil, err
		}
	}
	if err := CheckLength(ell); err != nil {
		return nil, err
	}
	out := &ManyResult{
		Destinations: make([]graph.NodeID, len(sources)),
		Walks:        make([]*WalkResult, len(sources)),
	}
	if ell == 0 {
		for i, s := range sources {
			out.Destinations[i] = s
			out.Walks[i] = &WalkResult{Source: s, Destination: s}
		}
		return out, nil
	}
	if w.g.N() == 1 {
		return nil, fmt.Errorf("%w: cannot walk on a single-node graph", ErrGraphTooSmall)
	}

	treeRes, err := w.ensureTree(sources[0])
	if err != nil {
		return nil, err
	}
	out.Cost.Add(treeRes)
	diam := w.tree.Height
	if diam < 1 {
		diam = 1
	}
	lam := w.prm.lambdaMany(len(sources), ell, diam, w.g.N())

	if !canStitch(ell, lam) {
		// The paper's "if λ > ℓ then run the naive random walk algorithm",
		// already at 2λ > ℓ: no walk stitches, so Phase 1 would buy nothing.
		out.NaiveFallback = true
		return out, w.finish(out, naiveMany(out, sources, ell))
	}
	extra := make(map[graph.NodeID]int, len(sources))
	for _, s := range sources {
		extra[s]++
	}
	p1, err := w.ensurePhase1(lam, extra)
	if err != nil {
		return nil, err
	}
	out.Cost.Add(p1)
	lam = w.lambda
	out.Lambda = lam

	// Every walk stitches at least once, so its first stitch needs no
	// announce part of its own: one pipelined upcast brings all k requests
	// to the root, the root announces the first walk, and each walk's last
	// result broadcast announces the next walk's source.
	announced := !w.prm.PerCallBFS
	if announced {
		res, err := w.requestAll(sources)
		out.Cost.Add(res)
		if err != nil {
			return nil, err
		}
	}

	// Stitch the k walks one at a time (as in the paper), but defer every
	// walk's ≤2λ-step naive tail so all k tails run concurrently below.
	tails := make([]tailSpec, len(sources))
	for i, s := range sources {
		next := graph.None
		if i+1 < len(sources) {
			next = sources[i+1]
		}
		// At most ℓ/λ segments, tail included, as in SINGLE-RANDOM-WALK.
		wr := &WalkResult{Source: s, Destination: s, Length: ell, Lambda: lam, Segments: make([]Segment, 0, ell/lam)}
		cur, completed, err := w.stitchSegments(wr, s, ell, lam, announced, next)
		if err != nil {
			return nil, fmt.Errorf("core: walk %d from %d: %w", i, s, err)
		}
		tails[i] = tailSpec{start: cur, steps: int32(ell - completed)}
		out.Walks[i] = wr
		out.Destinations[i] = wr.Destination
		out.Refills += wr.Refills
		out.Cost.Add(wr.Cost)
	}
	return out, w.finish(out, tails)
}

// requestAll opens MANY-RANDOM-WALKS' stitching. One pipelined upcast
// carries a SAMPLE-DESTINATION request for every walk whose source is
// not the tree root, in O(k + D) rounds where one request each would
// cost Σ depth(sᵢ), and the root announces the first walk's source.
func (w *Walker) requestAll(sources []graph.NodeID) (congest.Result, error) {
	var cost congest.Result
	// One flat list sorted by source, searched per node, as notifyAll's.
	var reqs []congest.Message
	for _, s := range sources {
		if s != w.tree.Root {
			reqs = append(reqs, ownerMsg(kindSampleRequest, s))
		}
	}
	if len(reqs) > 0 { // walks from the root need no request
		slices.SortFunc(reqs, func(a, b congest.Message) int { return cmp.Compare(a.W[0], b.W[0]) })
		byOwner := func(m congest.Message, u graph.NodeID) int { return cmp.Compare(graph.NodeID(m.W[0]), u) }
		_, res, err := congest.Upcast(w.net, w.tree, func(u graph.NodeID) []congest.Message {
			lo, _ := slices.BinarySearchFunc(reqs, u, byOwner)
			hi, _ := slices.BinarySearchFunc(reqs, u+1, byOwner)
			return reqs[lo:hi]
		})
		cost.Add(res)
		if err != nil {
			return cost, fmt.Errorf("core: sample-destination requests: %w", err)
		}
	}
	res, err := congest.Broadcast(w.net, w.tree, []congest.Message{ownerMsg(kindSampleAnnounce, sources[0])}, nil)
	cost.Add(res)
	if err != nil {
		return cost, fmt.Errorf("core: sample-destination announce: %w", err)
	}
	return cost, nil
}

// tailSpec is one deferred naive tail: steps hops remaining from start.
type tailSpec struct {
	start graph.NodeID
	steps int32
}

// finish completes every walk's remaining steps by simultaneous token
// forwarding, in O(max tail + congestion) rounds instead of the sum,
// appends each tail to out.Walks[i] as its last segment, then notifies
// the sources. A tail whose token vanished (lost to a fault) fails the batch.
func (w *Walker) finish(out *ManyResult, tails []tailSpec) error {
	p := &naiveManyProto{
		w:     w,
		steps: make([]int32, len(tails)),
		start: make(map[int64]int, len(tails)),
		dest:  make([]graph.NodeID, len(tails)),
	}
	wids := make([]int64, len(tails))
	p.walkIDs = wids
	for i, tl := range tails {
		wid := w.st.newWalkID(tl.start)
		wids[i] = wid
		p.start[wid] = i
		p.steps[i] = tl.steps
		p.dest[i] = graph.None
	}
	res, err := w.net.Run(p)
	out.Cost.Add(res)
	if err != nil {
		return err
	}
	for i, tl := range tails {
		if p.dest[i] == graph.None {
			return fmt.Errorf("core: token of walk %d did not complete", i)
		}
		wr := out.Walks[i]
		wr.Segments = append(wr.Segments, Segment{
			Start:  tl.start,
			End:    p.dest[i],
			WalkID: wids[i],
			Length: int(tl.steps),
		})
		wr.Destination = p.dest[i]
		out.Destinations[i] = p.dest[i]
	}
	return w.notifyAll(out)
}

// naiveMany sets up the naive k-walk (the k+ℓ regime): every walk is one
// ℓ-step tail from its source. The k results and their one-segment lists
// are carved from two slabs.
func naiveMany(out *ManyResult, sources []graph.NodeID, ell int) []tailSpec {
	walks := make([]WalkResult, len(sources))
	segs := make([]Segment, len(sources))
	tails := make([]tailSpec, len(sources))
	for i, s := range sources {
		walks[i] = WalkResult{Source: s, Destination: s, Length: ell, Naive: true, Segments: segs[i : i : i+1]}
		out.Walks[i] = &walks[i]
		tails[i] = tailSpec{start: s, steps: int32(ell)}
	}
	return tails
}

// notifyAll tells every walk's source its destination in O(k + D) rounds.
// The destinations upcast their (walk, dest) reports to the root,
// pipelined; the root then floods down, pipelined, only the reports whose
// source is some other node, since it is itself the source of the rest.
// When every walk starts at the root, as in the mixing-time estimator and
// the spanning tree, no flood runs.
func (w *Walker) notifyAll(out *ManyResult) error {
	root := w.tree.Root
	// One flat list, stable-sorted by destination: each node's reports go
	// up in walk order.
	byDest := make([]congest.Message, len(out.Walks))
	for i, wr := range out.Walks {
		last := wr.Segments[len(wr.Segments)-1]
		byDest[i] = destReport{
			walkID:     last.WalkID,
			dest:       wr.Destination,
			deg:        int32(w.g.Degree(wr.Destination)),
			rootSource: wr.Source == root,
		}.msg()
	}
	slices.SortStableFunc(byDest, func(a, b congest.Message) int {
		return destVs(a, readDestReport(&b).dest)
	})
	reports, res, err := congest.Upcast(w.net, w.tree, func(u graph.NodeID) []congest.Message {
		lo, _ := slices.BinarySearchFunc(byDest, u, destVs)
		hi, _ := slices.BinarySearchFunc(byDest, u+1, destVs)
		return byDest[lo:hi]
	})
	out.Cost.Add(res)
	if err != nil {
		return err
	}
	if len(reports) != len(out.Walks) {
		return fmt.Errorf("core: %d of %d destination reports arrived", len(reports), len(out.Walks))
	}
	flood := slices.DeleteFunc(reports, func(m congest.Message) bool { return readDestReport(&m).rootSource })
	if len(flood) == 0 {
		return nil
	}
	res, err = congest.Broadcast(w.net, w.tree, flood, nil)
	out.Cost.Add(res)
	return err
}

// destVs orders a destination report against node u.
func destVs(m congest.Message, u graph.NodeID) int {
	return cmp.Compare(readDestReport(&m).dest, u)
}

// naiveManyProto is the classic token walk: "The walk of length ℓ is
// performed by sending a token for ℓ steps, picking a random neighbor with
// each step" (Section 1.2). It is both the paper's baseline and the final
// ≤ 2λ-step tail of SINGLE-RANDOM-WALK (Algorithm 1, Phase 2 line 14;
// naiveSegment runs it with one token). It forwards k tokens (of possibly
// different lengths) simultaneously, each a walkToken sent under
// kindNaiveToken; the engine's per-edge queues charge any congestion
// between them.
type naiveManyProto struct {
	w       *Walker
	steps   []int32 // per walk index
	walkIDs []int64
	start   map[int64]int // walkID -> walk index
	dest    []graph.NodeID
}

func (p *naiveManyProto) Init(ctx *congest.Ctx) {
	v := ctx.Node()
	// Iterate the ordered slice, not the map: map order would make RNG
	// consumption (and thus the whole run) non-deterministic.
	for _, wid := range p.walkIDs {
		if walkOwner(wid) != v {
			continue
		}
		idx := p.start[wid]
		steps := p.steps[idx]
		if steps == 0 {
			p.dest[idx] = v
			continue
		}
		p.forward(ctx, walkToken{walkID: wid, remaining: steps, total: steps})
	}
}

func (p *naiveManyProto) Step(ctx *congest.Ctx) {
	in := ctx.Inbox()
	for i := range in {
		t := readToken(&in[i])
		if _, mine := p.start[t.walkID]; mine {
			p.forward(ctx, t)
		}
	}
}

func (p *naiveManyProto) forward(ctx *congest.Ctx, t walkToken) {
	port, rem := p.w.advanceToken(ctx, t)
	if port < 0 {
		p.dest[p.start[t.walkID]] = ctx.Node()
		return
	}
	t.remaining = rem
	w0, w1 := t.encode()
	ctx.SendPort(port, kindNaiveToken, tokenWords, w0, w1, 0, 0)
}
