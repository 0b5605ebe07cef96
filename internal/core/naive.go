package core

import (
	"fmt"

	"distwalk/internal/congest"
	"distwalk/internal/graph"
)

// destReport carries the walk outcome to the source over the BFS tree.
// The destination includes its own degree so the receiver can compute the
// stationary mass π(dest) = deg/2m locally (used by the mixing-time
// estimator, Section 4.2).
type destReport struct {
	walkID int64
	dest   graph.NodeID
	deg    int32
}

func (destReport) Words() int   { return 3 }
func (destReport) Kind() uint16 { return kindDestReport }
func (r destReport) Encode() [congest.PayloadWords]uint64 {
	return [congest.PayloadWords]uint64{uint64(r.walkID), congest.Pack2(int32(r.dest), r.deg)}
}
func (destReport) Decode(w [congest.PayloadWords]uint64) destReport {
	dest, deg := congest.Unpack2(w[1])
	return destReport{walkID: int64(w[0]), dest: graph.NodeID(dest), deg: deg}
}

// naiveProto is the classic token walk: "The walk of length ℓ is performed
// by sending a token for ℓ steps, picking a random neighbor with each
// step" (Section 1.2). It is both the paper's baseline and the final
// ≤ 2λ-step tail of SINGLE-RANDOM-WALK (Algorithm 1, Phase 2 line 14). Its
// token is a walkToken sent under kindNaiveToken.
type naiveProto struct {
	w      *Walker
	start  graph.NodeID
	walkID int64
	steps  int32

	dest    graph.NodeID
	arrived bool
}

func (p *naiveProto) Init(ctx *congest.Ctx) {
	if ctx.Node() != p.start {
		return
	}
	if p.steps == 0 {
		p.dest = p.start
		p.arrived = true
		return
	}
	p.forward(ctx, walkToken{walkID: p.walkID, remaining: p.steps, total: p.steps})
}

func (p *naiveProto) Step(ctx *congest.Ctx) {
	in := ctx.Inbox()
	for i := range in {
		if in[i].Kind != kindNaiveToken {
			continue
		}
		if t := readToken(&in[i]); t.walkID == p.walkID {
			p.forward(ctx, t)
		}
	}
}

func (p *naiveProto) forward(ctx *congest.Ctx, t walkToken) {
	port, rem := p.w.advanceToken(ctx, t.remaining)
	if port < 0 {
		p.dest = ctx.Node()
		p.arrived = true
		return
	}
	p.w.recordHop(ctx, t.walkID, port)
	t.remaining = rem
	w0, w1 := t.encode()
	ctx.SendPort(port, kindNaiveToken, tokenWords, w0, w1, 0, 0)
}

// naiveSegment walks `steps` hops from start by token forwarding (recording
// hops for later regeneration when the trail is kept) and returns the
// destination plus cost.
func (w *Walker) naiveSegment(start graph.NodeID, steps int) (graph.NodeID, int64, congest.Result, error) {
	p := &naiveProto{
		w:      w,
		start:  start,
		walkID: w.st.newWalkID(start),
		steps:  int32(steps),
	}
	res, err := w.walkRun(p)
	if err != nil {
		return graph.None, 0, res, err
	}
	if !p.arrived {
		return graph.None, 0, res, fmt.Errorf("core: naive walk of %d steps from %d did not complete", steps, start)
	}
	return p.dest, p.walkID, res, nil
}

// reportToSource sends (walkID, dest) from the destination to the tree
// root over tree edges (depth(dest) rounds). With the tree rooted at the
// walk's source this completes 1-RW-SoD: the source outputs the
// destination's ID.
func (w *Walker) reportToSource(tree *congest.Tree, dest graph.NodeID, walkID int64) (congest.Result, error) {
	reports, res, err := congest.Upcast(w.net, tree, func(u graph.NodeID) []destReport {
		if u == dest {
			return []destReport{{walkID: walkID, dest: dest, deg: int32(w.g.Degree(dest))}}
		}
		return nil
	})
	if err != nil {
		return res, err
	}
	if len(reports) != 1 || reports[0].dest != dest {
		return res, fmt.Errorf("core: destination report lost (got %d reports)", len(reports))
	}
	return res, nil
}
