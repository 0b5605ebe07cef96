package core

import (
	"cmp"
	"fmt"
	"slices"

	"distwalk/internal/congest"
	"distwalk/internal/graph"
)

// Trace is the result of regenerating a walk (Section 2.2, "Regenerating
// the entire random walk"): every node knows its position(s) in the
// ℓ-step walk. The arrays aggregate per-node local knowledge for driver
// convenience: v knows the positions i with Path[i] = v, FirstVisitTime[v],
// and so on.
type Trace struct {
	// Path[i] is the node the walk was at after i steps, for i in 0..ℓ:
	// Path[0] is the source and Path[ℓ] the destination.
	Path []graph.NodeID
	// FirstVisitTime[v] is the first position at which the walk was at v,
	// or -1 if the walk never visited v.
	FirstVisitTime []int32
	// FirstVisitFrom[v] is the node the walk arrived from on its first
	// visit to v (None for the source). This is exactly the edge the
	// Aldous-Broder spanning-tree rule outputs (Section 4.1).
	FirstVisitFrom []graph.NodeID
	// Covered reports whether every node was visited.
	Covered bool
	// Cost is the simulated cost of the regeneration pass.
	Cost congest.Result
}

// regenToken replays one forward segment hop by hop; pos is the global
// walk position upon arrival.
type regenToken struct {
	walkID int64
	pos    int32
}

// regenWords is a replay token's size in O(log n)-bit words.
const regenWords = 2

func (t regenToken) encode() (w0, w1 uint64) { return uint64(t.walkID), uint64(uint32(t.pos)) }

func readRegenToken(m *congest.Message) regenToken {
	return regenToken{walkID: int64(m.W[0]), pos: int32(uint32(m.W[1]))}
}

// regenSeg is what the replay knows of one forward segment: its walk ID,
// the node it starts at, the trace its visits go to, the global walk
// position of its first node, its length, and the key its hops were
// drawn from (walkKey).
type regenSeg struct {
	walkID int64
	key    uint64
	trace  *Trace
	from   graph.NodeID
	start  int32
	length int32
}

// regenProto is the replay protocol; the walker keeps one (Walker.regen),
// so that its segment lists are reused from call to call.
type regenProto struct {
	w *Walker
	// segs lists the segments grouped by start node, each node's in walk
	// order and then segment order: the order a node emits them in
	// decides the run's queueing. byID indexes segs by walk ID, which is
	// network-unique, so many walks replay concurrently in one run and
	// each token's visits go to its own trace.
	segs []regenSeg
	byID []int32
	// bad is set by a visit recorded twice or off the walk; a sound
	// replay never writes it.
	bad bool
}

func (p *regenProto) Init(ctx *congest.Ctx) {
	v := ctx.Node()
	i, _ := slices.BinarySearchFunc(p.segs, v, func(s regenSeg, v graph.NodeID) int { return cmp.Compare(s.from, v) })
	for ; i < len(p.segs) && p.segs[i].from == v; i++ {
		p.advance(ctx, p.segs[i].start, &p.segs[i])
	}
}

func (p *regenProto) Step(ctx *congest.Ctx) {
	v := ctx.Node()
	in := ctx.Inbox()
	for i := range in {
		t := readRegenToken(&in[i])
		if s := p.segment(t.walkID); s != nil {
			if !s.trace.record(v, t.pos) {
				p.bad = true
				return
			}
			p.advance(ctx, t.pos, s)
		}
	}
}

// segment returns the segment with the given walk ID, or nil.
func (p *regenProto) segment(walkID int64) *regenSeg {
	i, ok := slices.BinarySearchFunc(p.byID, walkID, func(i int32, id int64) int { return cmp.Compare(p.segs[i].walkID, id) })
	if !ok {
		return nil
	}
	return &p.segs[p.byID[i]]
}

// advance forwards the replay token at walk position pos along the hop
// the segment took there: hop pos−start, recomputed from the key the
// walk token drew it from. A Metropolis-Hastings stay (port −1) keeps the
// walk at this node one position later, so the node records that
// position and replays the next hop itself, sending nothing, as the walk
// token did. The segment ends after its length hops.
func (p *regenProto) advance(ctx *congest.Ctx, pos int32, s *regenSeg) {
	v := ctx.Node()
	for ; pos-s.start < s.length; pos++ {
		if port := p.w.hopPort(v, s.key, pos-s.start); port >= 0 {
			w0, w1 := regenToken{walkID: s.walkID, pos: pos + 1}.encode()
			ctx.SendPort(port, kindRegenToken, regenWords, w0, w1, 0, 0)
			return
		}
		if !s.trace.record(v, pos+1) {
			p.bad = true
			return
		}
	}
}

// record notes that the walk was at v at position pos. Only the node the
// walk was at records a position, so on a sound replay no two shards write
// one slot; it reports false, recording nothing, for a position off the
// walk or recorded before.
func (tr *Trace) record(v graph.NodeID, pos int32) bool {
	if pos < 0 || int(pos) >= len(tr.Path) || tr.Path[pos] != graph.None {
		return false
	}
	tr.Path[pos] = v
	return true
}

// Regenerate replays a completed walk so that every node learns its
// position(s) in it, in time comparable to Phase 1 (Section 2.2). Every
// segment — Phase 1, GET-MORE-WALKS and tail — replays forward in
// parallel, one message per hop, each hop recomputed by the node that
// forwarded it from the key the walk drew it from. The replay stores and
// consumes nothing, so regenerating a walk twice gives the same trace.
//
// The replay reproduces only walks of this walker's current seed and
// Reset epoch. A walk it does not reproduce — its replayed segments do
// not meet where the walk's next segment starts, or at its destination —
// fails with ErrNoRegen and no trace. Metropolis-Hastings walks replay
// like simple ones: a stay is a keyed draw too, recomputed where the walk
// stayed.
func (w *Walker) Regenerate(res *WalkResult) (*Trace, error) {
	if err := w.acquire(); err != nil {
		return nil, err
	}
	defer w.release()
	traces, err := w.regenerateMany([]*WalkResult{res})
	if err != nil {
		return nil, w.faultize(err)
	}
	return traces[0], nil
}

// RegenerateMany regenerates several walks in a single parallel replay
// pass (the walks must have distinct walk IDs, which holds for any walks
// produced by one Walker). Applications that need every walk's trace —
// like the spanning-tree cover search over ⌈log n⌉ candidate walks — pay
// roughly one walk's replay rounds for all of them, keeping regeneration
// within the Phase 1 budget as Section 2.2 claims.
func (w *Walker) RegenerateMany(walks []*WalkResult) ([]*Trace, error) {
	if err := w.acquire(); err != nil {
		return nil, err
	}
	defer w.release()
	traces, err := w.regenerateMany(walks)
	if err != nil {
		return nil, w.faultize(err)
	}
	return traces, nil
}

// regenerateMany replays walks in one run. Their traces come from one
// slab per element type, each array a capped sub-slice the caller owns,
// so a call allocates the same few objects for any number of walks and
// segments.
func (w *Walker) regenerateMany(walks []*WalkResult) ([]*Trace, error) {
	if len(walks) == 0 {
		return nil, fmt.Errorf("%w: no walks to regenerate", ErrNoRegen)
	}
	n, k := w.g.N(), len(walks)
	positions := 0
	for i, res := range walks {
		if res == nil {
			return nil, fmt.Errorf("%w: nil walk result (index %d)", ErrNoRegen, i)
		}
		pos := 0
		for _, s := range res.Segments {
			pos += s.Length
		}
		if pos != res.Length || pos < 0 {
			return nil, fmt.Errorf("%w: segments sum to %d, walk length is %d", ErrNoRegen, pos, res.Length)
		}
		positions += pos + 1
	}
	traces := make([]*Trace, k)
	slab := make([]Trace, k)
	nodes := make([]graph.NodeID, positions+k*n)
	times := make([]int32, k*n)
	for i := range nodes {
		nodes[i] = graph.None
	}
	for i := range times {
		times[i] = -1
	}
	p := &w.regen
	defer p.drop()
	seedMix := w.net.SeedMix()
	for i, res := range walks {
		trace := &slab[i]
		trace.Path, nodes = nodes[:res.Length+1:res.Length+1], nodes[res.Length+1:]
		trace.FirstVisitFrom, nodes = nodes[:n:n], nodes[n:]
		trace.FirstVisitTime = times[i*n : (i+1)*n : (i+1)*n]
		// The source knows it is position 0.
		trace.Path[0] = res.Source
		traces[i] = trace

		pos := int32(0)
		for _, s := range res.Segments {
			p.segs = append(p.segs, regenSeg{walkID: s.WalkID, key: walkKey(seedMix, s.WalkID), trace: trace, from: s.Start, start: pos, length: int32(s.Length)})
			pos += int32(s.Length)
		}
	}
	if err := p.index(); err != nil {
		return nil, err
	}

	cost, err := w.net.Run(p)
	traces[0].Cost = cost
	if err != nil {
		return nil, err
	}
	if p.bad {
		return nil, fmt.Errorf("%w: regeneration recorded a walk position twice or off its walk", ErrNoRegen)
	}
	if err := checkJunctions(walks, traces); err != nil {
		return nil, err
	}
	// Every position 0..ℓ must now hold one node. One ascending pass
	// fills each node's first visit: its least position, entered from
	// the node one position earlier (the Aldous–Broder edge).
	for i, trace := range traces {
		for pos, v := range trace.Path {
			if v == graph.None {
				return nil, fmt.Errorf("core: regeneration of walk %d left position %d unrecorded", i, pos)
			}
			if trace.FirstVisitTime[v] < 0 {
				trace.FirstVisitTime[v] = int32(pos)
				if pos > 0 {
					trace.FirstVisitFrom[v] = trace.Path[pos-1]
				}
			}
		}
		trace.Covered = true
		for v := range trace.FirstVisitTime {
			if trace.FirstVisitTime[v] < 0 {
				trace.Covered = false
				break
			}
		}
	}
	return traces, nil
}

// index groups the segments, listed in walk order and then segment
// order, by start node (a stable sort keeps each node's in that order)
// and indexes them by walk ID. Two segments with one walk ID fail it.
func (p *regenProto) index() error {
	slices.SortStableFunc(p.segs, func(a, b regenSeg) int { return cmp.Compare(a.from, b.from) })
	p.byID = p.byID[:0]
	for i := range p.segs {
		p.byID = append(p.byID, int32(i))
	}
	slices.SortFunc(p.byID, func(a, b int32) int { return cmp.Compare(p.segs[a].walkID, p.segs[b].walkID) })
	for i := 1; i < len(p.byID); i++ {
		if id := p.segs[p.byID[i]].walkID; id == p.segs[p.byID[i-1]].walkID {
			// One walker mints each ID once per epoch, so one of the two
			// walks is not of this epoch.
			return fmt.Errorf("%w: walk ID %d regenerated twice", ErrNoRegen, id)
		}
	}
	return nil
}

// drop empties the segment list, keeping its capacity but no trace: the
// walker must not keep a caller's traces reachable.
func (p *regenProto) drop() {
	clear(p.segs)
	p.segs, p.byID, p.bad = p.segs[:0], p.byID[:0], false
}

// checkJunctions checks that every segment's replay ended where the
// walk's next segment starts, or the last one at the walk's destination.
// A sound replay always does; one that recomputed hops the walk never
// drew (another seed, another Reset epoch) almost never does.
func checkJunctions(walks []*WalkResult, traces []*Trace) error {
	for i, res := range walks {
		pos := 0
		for k, s := range res.Segments {
			pos += s.Length
			if s.Length == 0 {
				continue
			}
			want, what := res.Destination, "its destination"
			if k+1 < len(res.Segments) {
				want, what = res.Segments[k+1].Start, "the next segment's start"
			}
			if got := traces[i].Path[pos]; got != want {
				return fmt.Errorf("%w: walk %d's segment %d replays to node %d, not to %s %d (the walk is not this walker's since its last Reset and Reseed)",
					ErrNoRegen, i, k, got, what, want)
			}
		}
	}
	return nil
}
