package core

import (
	"fmt"
	"slices"

	"distwalk/internal/congest"
	"distwalk/internal/graph"
)

// Trace is the result of regenerating a walk (Section 2.2, "Regenerating
// the entire random walk"): every node knows its position(s) in the
// ℓ-step walk. The arrays aggregate per-node local knowledge for driver
// convenience: Positions[v] is known to v, and so on.
type Trace struct {
	// Positions[v] lists the walk positions (0..ℓ) at which the walk was
	// at v, in increasing order. Position 0 is the source.
	Positions [][]int32
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

// regenToken replays one recorded segment hop by hop; pos is the global
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

type regenEmit struct {
	walkID   int64
	startPos int32
}

// regenWalk is what the replay knows of one forward segment: the trace its
// visits go to and the global walk position of its first node.
type regenWalk struct {
	trace *Trace
	start int32
}

type regenProto struct {
	w     *Walker
	emits map[graph.NodeID][]regenEmit

	// walks routes each segment's visits to its own trace and turns a
	// token's walk position into the segment's hop index; walk IDs are
	// network-unique, so many walks replay concurrently in one run.
	walks map[int64]regenWalk
}

func (p *regenProto) Init(ctx *congest.Ctx) {
	for _, e := range p.emits[ctx.Node()] {
		p.advance(ctx, e.walkID, e.startPos, e.startPos)
	}
}

func (p *regenProto) Step(ctx *congest.Ctx) {
	v := ctx.Node()
	in := ctx.Inbox()
	for i := range in {
		t := readRegenToken(&in[i])
		if rw, ok := p.walks[t.walkID]; ok {
			rw.trace.record(v, t.pos, in[i].From)
			p.advance(ctx, t.walkID, t.pos, rw.start)
		}
	}
}

// advance forwards the replay token at walk position pos along the hop
// the segment took there, hop pos−start of its recorded path; the segment
// ends where its path does.
func (p *regenProto) advance(ctx *congest.Ctx, walkID int64, pos, start int32) {
	next := p.w.st.pathNext(walkID, pos-start)
	if next == graph.None {
		return // segment ends here
	}
	w0, w1 := regenToken{walkID: walkID, pos: pos + 1}.encode()
	ctx.SendTo(next, kindRegenToken, regenWords, w0, w1, 0, 0)
}

// record notes that the walk was at v at position pos, arriving from
// `from`. Replay passes deliver visits out of position order (parallel
// forward segments, backward refill retraces), so first-visit bookkeeping
// keeps the minimum position rather than the first arrival.
func (tr *Trace) record(v graph.NodeID, pos int32, from graph.NodeID) {
	tr.Positions[v] = append(tr.Positions[v], pos)
	if tr.FirstVisitTime[v] < 0 || pos < tr.FirstVisitTime[v] {
		tr.FirstVisitTime[v] = pos
		tr.FirstVisitFrom[v] = from
	}
}

// Regenerate replays a completed walk so that every node learns its
// position(s) in it, in time comparable to Phase 1 (Section 2.2). Phase 1
// and tail segments replay forward in parallel, one message per recorded
// hop; GET-MORE-WALKS segments (rare — w.h.p. absent, Theorem 2.5) are
// retraced backward through their recorded flow counts, one at a time so
// the without-replacement claims stay exact.
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
		return nil, fmt.Errorf("core: no walks to regenerate")
	}
	if w.prm.Metropolis {
		return nil, fmt.Errorf("%w: Metropolis-Hastings stay steps leave no hop trail", ErrNoRegen)
	}
	if w.st.trailGap {
		return nil, fmt.Errorf("%w: the walker kept no hop trail for some walk since its last Reset (call KeepTrail before the first walk)", ErrNoRegen)
	}
	n := w.g.N()
	type refillAt struct {
		seg      Segment
		startPos int32
		trace    *Trace
	}
	var refills []refillAt
	traces := make([]*Trace, len(walks))
	emits := make(map[graph.NodeID][]regenEmit)
	segs := make(map[int64]regenWalk)
	for i, res := range walks {
		if res == nil {
			return nil, fmt.Errorf("core: nil walk result (index %d)", i)
		}
		trace := &Trace{
			Positions:      make([][]int32, n),
			FirstVisitTime: make([]int32, n),
			FirstVisitFrom: make([]graph.NodeID, n),
		}
		for v := range trace.FirstVisitTime {
			trace.FirstVisitTime[v] = -1
			trace.FirstVisitFrom[v] = graph.None
		}
		// The source knows it is position 0.
		trace.Positions[res.Source] = append(trace.Positions[res.Source], 0)
		trace.FirstVisitTime[res.Source] = 0
		traces[i] = trace

		pos := int32(0)
		for _, s := range res.Segments {
			if s.FromRefill {
				refills = append(refills, refillAt{seg: s, startPos: pos, trace: trace})
			} else {
				if _, dup := segs[s.WalkID]; dup {
					return nil, fmt.Errorf("core: walk ID %d regenerated twice", s.WalkID)
				}
				emits[s.Start] = append(emits[s.Start], regenEmit{walkID: s.WalkID, startPos: pos})
				segs[s.WalkID] = regenWalk{trace: trace, start: pos}
			}
			pos += int32(s.Length)
		}
		if int(pos) != res.Length {
			return nil, fmt.Errorf("core: segments sum to %d, walk length is %d", pos, res.Length)
		}
	}

	p := &regenProto{w: w, emits: emits, walks: segs}
	cost, err := w.net.Run(p)
	traces[0].Cost = cost
	if err != nil {
		return nil, err
	}
	for _, r := range refills {
		res, err := w.retraceRefill(r.seg, r.startPos, r.trace)
		traces[0].Cost.Add(res)
		if err != nil {
			return nil, err
		}
	}
	// Replays interleave arrival order; each node sorts its own position
	// list (local work is free in the model). Then check per-walk
	// invariants: ℓ+1 recorded positions, ending at the destination.
	for i, trace := range traces {
		res := walks[i]
		total := 0
		for v := range trace.Positions {
			slices.Sort(trace.Positions[v])
			total += len(trace.Positions[v])
		}
		if total != res.Length+1 {
			return nil, fmt.Errorf("core: regeneration of walk %d recorded %d positions, want %d",
				i, total, res.Length+1)
		}
		if last := trace.Positions[res.Destination]; len(last) == 0 ||
			last[len(last)-1] != int32(res.Length) {
			return nil, fmt.Errorf("core: regeneration of walk %d did not end at destination %d",
				i, res.Destination)
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
