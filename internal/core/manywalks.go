package core

import (
	"fmt"

	"distwalk/internal/congest"
	"distwalk/internal/graph"
)

// ManyResult describes k walks computed by MANY-RANDOM-WALKS.
type ManyResult struct {
	// Destinations[i] is the endpoint of the walk from sources[i].
	Destinations []graph.NodeID
	// Walks holds the per-walk composition; shared costs (tree, Phase 1,
	// batched notifications) appear only in Cost.
	Walks []*WalkResult
	// Lambda is the short-walk base length used (0 on the naive path).
	Lambda int
	// NaiveFallback reports that λ > ℓ made token forwarding optimal, so
	// all k walks ran as parallel naive tokens (Õ(k+ℓ) rounds).
	NaiveFallback bool
	// Refills counts GET-MORE-WALKS invocations across all walks.
	Refills int
	// Cost is the total simulated cost of the batch.
	Cost congest.Result
	// Errs holds per-walk failures in partial-results mode
	// (ManyRandomWalksPartial): Errs[i] is nil iff walk i completed. Nil
	// in all-or-nothing mode.
	Errs []error
	// Failed counts non-nil entries of Errs.
	Failed int
}

// fail charges a per-walk error to walk i in partial-results mode. The
// walk's destination becomes graph.None; any stitched prefix remains on
// Walks[i] for inspection.
func (m *ManyResult) fail(i int, err error) {
	m.Errs[i] = err
	m.Failed++
	m.Destinations[i] = graph.None
	if m.Walks[i] != nil {
		m.Walks[i].Destination = graph.None
	}
}

// ManyRandomWalks computes k independent ℓ-step walks from the given (not
// necessarily distinct) sources in Õ(min(√(kℓD)+k, k+ℓ)) rounds
// (Theorem 2.8): one Phase 1 provisions short walks of length
// λ = Θ(√(kℓD)+k), then the walks are stitched one at a time; if λ > ℓ the
// k walks run as parallel naive tokens instead.
func (w *Walker) ManyRandomWalks(sources []graph.NodeID, ell int) (*ManyResult, error) {
	if err := w.acquire(); err != nil {
		return nil, err
	}
	defer w.release()
	res, err := w.manyRandomWalks(sources, ell, false)
	if err != nil {
		return nil, w.faultize(err)
	}
	return res, nil
}

// ManyRandomWalksPartial is ManyRandomWalks with per-walk failure
// isolation: when a fault (crashed node, lost message) kills individual
// walks, the surviving walks still complete and the casualties are
// reported in ManyResult.Errs instead of failing the whole batch.
// Shared-phase failures (BFS tree, Phase 1, cancellation, walker misuse)
// still abort everything — with no short walks provisioned there is
// nothing to salvage.
func (w *Walker) ManyRandomWalksPartial(sources []graph.NodeID, ell int) (*ManyResult, error) {
	if err := w.acquire(); err != nil {
		return nil, err
	}
	defer w.release()
	res, err := w.manyRandomWalks(sources, ell, true)
	if err != nil {
		return nil, w.faultize(err)
	}
	return res, nil
}

func (w *Walker) manyRandomWalks(sources []graph.NodeID, ell int, partial bool) (*ManyResult, error) {
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
	if partial {
		out.Errs = make([]error, len(sources))
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

	if lam > ell {
		// "If λ > ℓ then run the naive random walk algorithm, i.e., the
		// sources find walks of length ℓ simultaneously by sending tokens."
		out.NaiveFallback = true
		return out, w.naiveMany(out, sources, ell, partial)
	}
	out.Lambda = lam

	extra := make(map[graph.NodeID]int, len(sources))
	for _, s := range sources {
		extra[s]++
	}
	p1, err := w.ensurePhase1(lam, extra)
	if err != nil {
		return nil, err
	}
	out.Cost.Add(p1)

	// Stitch the k walks one at a time (as in the paper), but defer every
	// walk's ≤2λ-step naive tail so all k tails run concurrently below.
	tails := make([]tailSpec, len(sources))
	for i, s := range sources {
		wr := &WalkResult{Source: s, Destination: s, Length: ell, Lambda: lam}
		cur, completed, err := w.stitchSegments(wr, s, ell, lam)
		if err != nil {
			werr := fmt.Errorf("core: walk %d from %d: %w", i, s, err)
			if !partial || abortive(err) {
				return nil, werr
			}
			out.Walks[i] = wr
			out.Cost.Add(wr.Cost)
			out.Refills += wr.Refills
			out.fail(i, w.faultize(werr))
			tails[i] = tailSpec{start: graph.None}
			continue
		}
		tails[i] = tailSpec{start: cur, steps: int32(ell - completed)}
		out.Walks[i] = wr
		out.Destinations[i] = wr.Destination
		out.Refills += wr.Refills
		out.Cost.Add(wr.Cost)
	}
	if err := w.runTails(out, tails, partial); err != nil {
		return nil, err
	}
	return out, w.notifyAll(out, sources)
}

// tailSpec is one deferred naive tail: steps hops remaining from start.
// start == graph.None marks a walk already failed in partial mode; it
// gets no tail token.
type tailSpec struct {
	start graph.NodeID
	steps int32
}

// runTails completes every walk's remaining steps with simultaneous token
// forwarding — O(max tail + congestion) rounds instead of the sum — and
// appends the tail to out.Walks[i] as its last segment. In partial mode a
// tail whose token vanished (lost to a fault) is charged to its walk;
// otherwise it fails the batch.
func (w *Walker) runTails(out *ManyResult, tails []tailSpec, partial bool) error {
	p := &naiveManyProto{
		w:     w,
		steps: make([]int32, len(tails)),
		start: make(map[int64]int, len(tails)),
		dest:  make([]graph.NodeID, len(tails)),
	}
	wids := make([]int64, len(tails))
	for i, tl := range tails {
		if tl.start == graph.None {
			wids[i] = -1
			continue
		}
		wid := w.st.newWalk(tl.start, tl.steps)
		wids[i] = wid
		p.start[wid] = i
		p.walkIDs = append(p.walkIDs, wid)
		p.steps[i] = tl.steps
		p.dest[i] = graph.None
	}
	res, err := w.walkRun(p)
	out.Cost.Add(res)
	if err != nil {
		return err
	}
	for i, tl := range tails {
		if tl.start == graph.None {
			continue
		}
		if p.dest[i] == graph.None {
			err := fmt.Errorf("core: token of walk %d did not complete", i)
			if partial {
				out.fail(i, w.faultize(err))
				continue
			}
			return err
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
	return nil
}

// naiveMany walks all k tokens simultaneously (the k+ℓ regime): every
// walk is one ℓ-step tail from its source.
func (w *Walker) naiveMany(out *ManyResult, sources []graph.NodeID, ell int, partial bool) error {
	tails := make([]tailSpec, len(sources))
	for i, s := range sources {
		out.Walks[i] = &WalkResult{Source: s, Destination: s, Length: ell, Naive: true}
		tails[i] = tailSpec{start: s, steps: int32(ell)}
	}
	if err := w.runTails(out, tails, partial); err != nil {
		return err
	}
	return w.notifyAll(out, sources)
}

// notifyAll delivers every walk's destination back to its source in
// O(k + D) rounds: the destinations upcast (walk, dest) reports to the
// root, which floods them back down, both pipelined.
func (w *Walker) notifyAll(out *ManyResult, sources []graph.NodeID) error {
	perNode := make(map[graph.NodeID][]congest.Message, len(sources))
	for i := range sources {
		if out.Errs != nil && out.Errs[i] != nil {
			continue // failed walk: no destination to announce
		}
		wr := out.Walks[i]
		last := wr.Segments[len(wr.Segments)-1]
		perNode[wr.Destination] = append(perNode[wr.Destination], destReport{
			walkID: last.WalkID,
			dest:   wr.Destination,
			deg:    int32(w.g.Degree(wr.Destination)),
		}.msg())
	}
	reports, res, err := congest.Upcast(w.net, w.tree, func(u graph.NodeID) []congest.Message {
		return perNode[u]
	})
	out.Cost.Add(res)
	if err != nil {
		return err
	}
	if want := len(sources) - out.Failed; len(reports) != want {
		return fmt.Errorf("core: %d of %d destination reports arrived", len(reports), want)
	}
	res, err = congest.Broadcast(w.net, w.tree, reports, nil)
	out.Cost.Add(res)
	return err
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
	// consumption (and thus the whole run) non-deterministic. The walk
	// index comes from the start map — walkIDs is sparse when partial
	// mode dropped failed walks before the tail run.
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
	port, rem := p.w.advanceToken(ctx, t.remaining)
	if port < 0 {
		p.dest[p.start[t.walkID]] = ctx.Node()
		return
	}
	p.w.recordHop(ctx, t, rem, port)
	t.remaining = rem
	w0, w1 := t.encode()
	ctx.SendPort(port, kindNaiveToken, tokenWords, w0, w1, 0, 0)
}
