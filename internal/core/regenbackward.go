package core

import (
	"fmt"

	"distwalk/internal/congest"
	"distwalk/internal/graph"
)

// Backward retracing of GET-MORE-WALKS segments.
//
// A refill batch moves as count-aggregated bundles (Algorithm 2), so there
// are no per-token hop records to replay forward. There are, however,
// per-node flow records: every node knows how many batch tokens it routed
// to each neighbor at each step (recorded locally during the refill, at no
// message cost). Because the batch's tokens are exchangeable and choose
// neighbors i.i.d., the conditional law of a specific token's trajectory
// given all flow counts is exactly the backward chain
//
//	P(pred = x | token at u with hop counter s) ∝ flow(x → u, arriving s),
//
// sampled without replacement across retraces (earlier claims decrement
// the available flow, keeping joint retraces of several coupons from one
// batch exact). The protocol walks backward from the coupon's holder:
// query all neighbors for their remaining flow (1 round), collect replies
// (1 round), sample the predecessor and claim one unit from it (1 round),
// repeat — O(1) rounds per hop and one message per involved edge. Each
// visited node learns its walk position, exactly like forward replay.

// The retrace's three messages, and their sizes in O(log n)-bit words.
type gmwQuery struct {
	batch int64
	step  int32
}

type gmwReply struct {
	batch int64
	step  int32
	count int32
}

type gmwClaim struct {
	batch int64
	step  int32 // the claimed flow's arrival step
	pos   int32 // walk position of the claiming node
}

const (
	gmwQueryWords = 2
	gmwReplyWords = 3
	gmwClaimWords = 3
)

func (q gmwQuery) encode() (w0, w1 uint64) { return uint64(q.batch), uint64(uint32(q.step)) }

func readGMWQuery(m *congest.Message) gmwQuery {
	return gmwQuery{batch: int64(m.W[0]), step: int32(uint32(m.W[1]))}
}

func (r gmwReply) encode() (w0, w1 uint64) { return uint64(r.batch), congest.Pack2(r.step, r.count) }

func readGMWReply(m *congest.Message) gmwReply {
	step, count := congest.Unpack2(m.W[1])
	return gmwReply{batch: int64(m.W[0]), step: step, count: count}
}

func (c gmwClaim) encode() (w0, w1 uint64) { return uint64(c.batch), congest.Pack2(c.step, c.pos) }

func readGMWClaim(m *congest.Message) gmwClaim {
	step, pos := congest.Unpack2(m.W[1])
	return gmwClaim{batch: int64(m.W[0]), step: step, pos: pos}
}

// backwardProto retraces one refill segment.
type backwardProto struct {
	w   *Walker
	seg Segment
	// startPos is the segment's first walk position (held by seg.Start).
	startPos int32
	trace    *Trace

	// pending tracks the node currently collecting neighbor replies.
	// Queries go out once per distinct neighbor (flow records are keyed by
	// neighbor, so parallel edges share one ledger entry).
	pending struct {
		node      graph.NodeID
		step      int32
		pos       int32
		nbrs      []graph.NodeID // distinct, in adjacency order
		counts    []int32        // -1 until the neighbor replied
		remaining int
		active    bool
	}
	done bool
	err  error
}

func (p *backwardProto) Init(ctx *congest.Ctx) {
	v := ctx.Node()
	if v != p.seg.End {
		return
	}
	p.query(ctx, int32(p.seg.Length), p.startPos+int32(p.seg.Length))
}

func (p *backwardProto) Step(ctx *congest.Ctx) {
	v := ctx.Node()
	in := ctx.Inbox()
	for i := range in {
		m := &in[i]
		switch m.Kind {
		case kindGMWQuery:
			// "How many batch tokens did you route to me (arriving at hop
			// counter step) that are still unclaimed?" — the ledger at this
			// node is keyed by the asking neighbor.
			msg := readGMWQuery(m)
			key := gmwKey{batch: msg.batch, step: msg.step, nbr: m.From}
			w0, w1 := gmwReply{batch: msg.batch, step: msg.step, count: p.w.st.gmwAvailable(v, key)}.encode()
			ctx.SendTo(m.From, kindGMWReply, gmwReplyWords, w0, w1, 0, 0)
		case kindGMWReply:
			p.onReply(ctx, m.From, readGMWReply(m))
		case kindGMWClaim:
			p.onClaim(ctx, m.From, readGMWClaim(m))
		}
	}
}

// query starts a backward hop: node v (at walk position pos, hop counter
// step) asks every distinct neighbor for its remaining flow toward v.
// Neighbor dedup uses the state's epoch-stamped mark scratch and the reply
// slots are reused slices, so a long retrace allocates nothing per hop.
func (p *backwardProto) query(ctx *congest.Ctx, step, pos int32) {
	v := ctx.Node()
	p.pending.node = v
	p.pending.step = step
	p.pending.pos = pos
	p.pending.nbrs = p.pending.nbrs[:0]
	p.w.st.beginMark()
	for _, h := range ctx.Neighbors() {
		if p.w.st.markNode(h.To) {
			continue
		}
		p.pending.nbrs = append(p.pending.nbrs, h.To)
	}
	p.pending.counts = p.pending.counts[:0]
	for range p.pending.nbrs {
		p.pending.counts = append(p.pending.counts, -1)
	}
	p.pending.remaining = len(p.pending.nbrs)
	p.pending.active = true
	w0, w1 := gmwQuery{batch: p.seg.Batch, step: step}.encode()
	for _, nbr := range p.pending.nbrs {
		ctx.SendTo(nbr, kindGMWQuery, gmwQueryWords, w0, w1, 0, 0)
	}
}

func (p *backwardProto) onReply(ctx *congest.Ctx, from graph.NodeID, msg gmwReply) {
	v := ctx.Node()
	if !p.pending.active || p.pending.node != v || msg.step != p.pending.step {
		return
	}
	for i, nbr := range p.pending.nbrs {
		if nbr == from {
			if p.pending.counts[i] >= 0 {
				return // duplicate reply
			}
			p.pending.counts[i] = msg.count
			p.pending.remaining--
			break
		}
	}
	if p.pending.remaining > 0 {
		return
	}
	// All replies in: sample the predecessor proportionally to flow, keyed
	// by (walk ID, step) like a forward hop.
	total := int64(0)
	for _, c := range p.pending.counts {
		total += int64(c)
	}
	if total <= 0 {
		p.err = fmt.Errorf("%w: backward retrace stuck at node %d step %d (no recorded flow: the refill is not this walker's since its last Reset)",
			ErrNoRegen, v, p.pending.step)
		p.done = true
		return
	}
	x := int64(bounded(hopKey(walkKey(ctx.SeedMix(), p.seg.WalkID), p.pending.step), uint64(total)))
	acc := int64(0)
	pred := p.pending.nbrs[len(p.pending.nbrs)-1]
	for i, c := range p.pending.counts {
		acc += int64(c)
		if x < acc {
			pred = p.pending.nbrs[i]
			break
		}
	}
	// This node now knows its position.
	p.pending.active = false
	if !p.trace.record(v, p.pending.pos) {
		p.err = fmt.Errorf("core: backward retrace recorded position %d twice or off its walk", p.pending.pos)
		p.done = true
		return
	}
	w0, w1 := gmwClaim{batch: p.seg.Batch, step: p.pending.step, pos: p.pending.pos}.encode()
	ctx.SendTo(pred, kindGMWClaim, gmwClaimWords, w0, w1, 0, 0)
}

func (p *backwardProto) onClaim(ctx *congest.Ctx, from graph.NodeID, msg gmwClaim) {
	v := ctx.Node()
	p.w.st.claimGMW(v, gmwKey{batch: msg.batch, step: msg.step, nbr: from})
	prevStep := msg.step - 1
	prevPos := msg.pos - 1
	if prevStep == 0 {
		// The batch originated here: this must be the segment's start, and
		// its position is recorded by the preceding segment (or the walk
		// source), so the retrace is complete.
		if v != p.seg.Start {
			p.err = fmt.Errorf("core: backward retrace ended at %d, want %d", v, p.seg.Start)
		} else if prevPos != p.startPos {
			p.err = fmt.Errorf("core: backward retrace position %d, want %d", prevPos, p.startPos)
		}
		p.done = true
		return
	}
	p.query(ctx, prevStep, prevPos)
}

func (p *backwardProto) Halted() bool { return p.done }

// retraceRefill regenerates one GET-MORE-WALKS segment starting at walk
// position startPos, recording visits into trace.
func (w *Walker) retraceRefill(seg Segment, startPos int32, trace *Trace) (congest.Result, error) {
	p := &backwardProto{w: w, seg: seg, startPos: startPos, trace: trace}
	res, err := w.net.Run(p)
	if err != nil {
		return res, err
	}
	if p.err != nil {
		return res, p.err
	}
	if !p.done {
		return res, fmt.Errorf("core: backward retrace of segment %d->%d did not finish", seg.Start, seg.End)
	}
	return res, nil
}
