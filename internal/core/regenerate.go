package core

import (
	"fmt"

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

// regenWalk is what the replay knows of one forward segment: the trace its
// visits go to, the global walk position of its first node, its length,
// and the key its hops were drawn from (walkKey).
type regenWalk struct {
	trace  *Trace
	start  int32
	length int32
	key    uint64
}

type regenProto struct {
	w *Walker
	// emits[v] lists the walk IDs of the segments that start at v.
	emits map[graph.NodeID][]int64

	// walks routes each segment's visits to its own trace and turns a
	// token's walk position into the segment's hop index; walk IDs are
	// network-unique, so many walks replay concurrently in one run.
	walks map[int64]regenWalk
	// bad is set by a visit recorded twice or off the walk; a sound
	// replay never writes it.
	bad bool
}

func (p *regenProto) Init(ctx *congest.Ctx) {
	for _, wid := range p.emits[ctx.Node()] {
		rw := p.walks[wid]
		p.advance(ctx, wid, rw.start, rw)
	}
}

func (p *regenProto) Step(ctx *congest.Ctx) {
	v := ctx.Node()
	in := ctx.Inbox()
	for i := range in {
		t := readRegenToken(&in[i])
		if rw, ok := p.walks[t.walkID]; ok {
			if !rw.trace.record(v, t.pos) {
				p.bad = true
				return
			}
			p.advance(ctx, t.walkID, t.pos, rw)
		}
	}
}

// advance forwards the replay token at walk position pos along the hop
// the segment took there: hop pos−start, recomputed from the key the
// walk token drew it from. A Metropolis-Hastings stay (port −1) keeps the
// walk at this node one position later, so the node records that
// position and replays the next hop itself, sending nothing, as the walk
// token did. The segment ends after its length hops.
func (p *regenProto) advance(ctx *congest.Ctx, walkID int64, pos int32, rw regenWalk) {
	v := ctx.Node()
	for ; pos-rw.start < rw.length; pos++ {
		if port := p.w.hopPort(v, rw.key, pos-rw.start); port >= 0 {
			w0, w1 := regenToken{walkID: walkID, pos: pos + 1}.encode()
			ctx.SendPort(port, kindRegenToken, regenWords, w0, w1, 0, 0)
			return
		}
		if !rw.trace.record(v, pos+1) {
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

func (w *Walker) regenerateMany(walks []*WalkResult) ([]*Trace, error) {
	if len(walks) == 0 {
		return nil, fmt.Errorf("%w: no walks to regenerate", ErrNoRegen)
	}
	n := w.g.N()
	traces := make([]*Trace, len(walks))
	seedMix := w.net.SeedMix()
	emits := make(map[graph.NodeID][]int64)
	segs := make(map[int64]regenWalk)
	for i, res := range walks {
		if res == nil {
			return nil, fmt.Errorf("%w: nil walk result (index %d)", ErrNoRegen, i)
		}
		trace := &Trace{
			Path:           make([]graph.NodeID, res.Length+1),
			FirstVisitTime: make([]int32, n),
			FirstVisitFrom: make([]graph.NodeID, n),
		}
		for pos := range trace.Path {
			trace.Path[pos] = graph.None
		}
		for v := range trace.FirstVisitTime {
			trace.FirstVisitTime[v] = -1
			trace.FirstVisitFrom[v] = graph.None
		}
		// The source knows it is position 0.
		trace.Path[0] = res.Source
		traces[i] = trace

		pos := int32(0)
		for _, s := range res.Segments {
			if _, dup := segs[s.WalkID]; dup {
				// One walker mints each ID once per epoch, so one of
				// the two walks is not of this epoch.
				return nil, fmt.Errorf("%w: walk ID %d regenerated twice", ErrNoRegen, s.WalkID)
			}
			emits[s.Start] = append(emits[s.Start], s.WalkID)
			segs[s.WalkID] = regenWalk{trace: trace, start: pos, length: int32(s.Length), key: walkKey(seedMix, s.WalkID)}
			pos += int32(s.Length)
		}
		if int(pos) != res.Length {
			return nil, fmt.Errorf("%w: segments sum to %d, walk length is %d", ErrNoRegen, pos, res.Length)
		}
	}

	p := &regenProto{w: w, emits: emits, walks: segs}
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
