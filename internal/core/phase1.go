package core

import (
	"distwalk/internal/congest"
	"distwalk/internal/graph"
)

// walkToken carries one walk: the walk ID (which encodes the owner), the
// hops still to take, and the total length (stored in the coupon at a
// short walk's destination). All O(log n) bits, as in Section 2.1: "Each
// node simply sends η tokens containing the source ID and the desired
// length. The nodes keep forwarding these tokens with decreased desired
// walk length". The naive walks and the tails are the same tokens
// (tokenProto).
type walkToken struct {
	walkID    int64
	remaining int32
	total     int32
}

// tokenWords is a walk token's size in O(log n)-bit words.
const tokenWords = 3

// encode packs the token into its two payload words and readToken
// decodes them in place, from the inbox slot the token arrived in. A token
// is sent once per walk step — all but a few of a request's messages — so
// it goes out by the port the step drew (congest.Ctx.SendPort).
func (t walkToken) encode() (w0, w1 uint64) {
	return uint64(t.walkID), congest.Pack2(t.remaining, t.total)
}

func readToken(m *congest.Message) walkToken {
	rem, total := congest.Unpack2(m.W[1])
	return walkToken{walkID: int64(m.W[0]), remaining: rem, total: total}
}

// tokenProto is the one walk-token protocol: "The walk of length ℓ is
// performed by sending a token for ℓ steps, picking a random neighbor with
// each step" (Section 1.2). A run starts one token set. Phase 1's: every
// node v starts η·deg(v) short walks (η with UniformCounts) plus one per
// call walk that starts at v (Lemma 2.6's "+k": each source is a
// connector once per walk it starts). A refill's: count walks at node
// alone (GET-MORE-WALKS). Each such walk is λ + r steps long, r uniform in
// [0, λ−1] (exactly λ with FixedLength), and stores a coupon where it
// ends. Or the call's tails (Walker.walks): the naive walks and the
// stitched walks' last ≤ 2λ steps (Algorithm 1, Phase 2 line 14), which
// end in their walk's destination. Each hop is a keyed draw the forwarding
// node can recompute, so every walk can be replayed (see hopPort). The
// engine's per-edge queues charge the congestion between tokens (Lemma
// 2.1: O(λη log n) rounds w.h.p. for Phase 1).
type tokenProto struct {
	w      *Walker
	lambda int32
	tails  bool
	// topUp tops a kept inventory up instead (Walker.ensurePhase1): a node
	// starts only the walks it lacks to hold that many unused walks of its
	// own again.
	topUp bool
	// count > 0 makes the run a refill of node.
	node  graph.NodeID
	count int
}

func (p *tokenProto) Init(ctx *congest.Ctx) {
	v := ctx.Node()
	if p.tails {
		// Walk order: a node's tokens enter its edge queues in the order it
		// sends them, so the order decides the run's queueing.
		for i := range p.w.walks {
			c := &p.w.walks[i]
			if c.at != v {
				continue
			}
			if c.steps == 0 {
				c.dest = v
				continue
			}
			p.forward(ctx, walkToken{walkID: c.walkID, remaining: c.steps, total: c.steps})
		}
		return
	}
	if ctx.Degree() == 0 || p.count > 0 && v != p.node {
		return
	}
	count := p.count
	if count == 0 {
		count = p.w.prm.Eta
		if !p.w.prm.UniformCounts {
			count *= ctx.Degree()
		}
		count += p.w.walksAt(v)
		if p.topUp {
			count = max(0, count-int(p.w.st.owned[v]))
		}
	}
	p.w.st.owned[v] += int32(count)
	for i := 0; i < count; i++ {
		wid := p.w.st.newWalkID(v)
		total := p.lambda
		if !p.w.prm.FixedLength {
			total += int32(bounded(lengthKey(walkKey(ctx.SeedMix(), wid)), uint64(p.lambda)))
		}
		p.forward(ctx, walkToken{walkID: wid, remaining: total, total: total})
	}
}

// Step forwards every token that arrived: a Run carries only its own
// protocol's messages (wire.go), so every one is a walk token.
func (p *tokenProto) Step(ctx *congest.Ctx) {
	in := ctx.Inbox()
	for i := range in {
		p.forward(ctx, readToken(&in[i]))
	}
}

// forward takes walk steps of the token at the executing node until it
// either moves to a neighbor or finishes here (stay steps of the
// Metropolis-Hastings variant are free: they consume walk steps but no
// messages). A finished tail records its walk's destination; any other
// finished walk stores its coupon.
func (p *tokenProto) forward(ctx *congest.Ctx, t walkToken) {
	port, rem := p.w.advanceToken(ctx, t)
	if port >= 0 {
		t.remaining = rem
		w0, w1 := t.encode()
		ctx.SendPort(port, kindWalkToken, tokenWords, w0, w1, 0, 0)
		return
	}
	if !p.tails {
		p.w.st.addCoupon(ctx.Node(), coupon{owner: walkOwner(t.walkID), walkID: t.walkID, length: t.total})
		return
	}
	for i := range p.w.walks {
		if c := &p.w.walks[i]; c.walkID == t.walkID {
			c.dest = ctx.Node()
			return
		}
	}
}
