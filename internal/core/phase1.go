package core

import (
	"distwalk/internal/congest"
	"distwalk/internal/graph"
)

// walkToken carries one Phase 1 short walk: the walk ID (which encodes the
// owner), the hops still to take, and the total length (stored in the
// coupon at the destination). All O(log n) bits, as in Section 2.1: "Each
// node simply sends η tokens containing the source ID and the desired
// length. The nodes keep forwarding these tokens with decreased desired
// walk length". The naive walks forward the same three fields under their
// own kind (naive.go).
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

// phase1Proto performs Phase 1 of SINGLE-RANDOM-WALK: every node v starts
// η·deg(v) independent short walks (η with UniformCounts), each of length
// λ + r with r uniform in [0, λ−1] (exactly λ with FixedLength). Each
// hop is a keyed draw the forwarding node can recompute, so the walk can
// be replayed later (see hopPort); the destination stores a coupon. The
// engine's per-edge queues charge the congestion this phase is known for
// (Lemma 2.1: O(λη log n) rounds w.h.p.).
type phase1Proto struct {
	w      *Walker
	lambda int32
	// extra adds walks at walk sources: Lemma 2.6's visit bound carries a
	// "+k" term precisely because the k sources are each used as a
	// connector once per walk they start, on top of the d(y)√(kℓ)
	// stationary visits — so sources provision k extra short walks.
	extra map[graph.NodeID]int
	// topUp tops a kept inventory up instead (Walker.ensurePhase1): a node
	// starts only the walks it lacks to hold that many unused walks of its
	// own again.
	topUp bool
	// refill makes the run GET-MORE-WALKS (getMoreWalks): only the extra
	// walks start.
	refill bool
}

func (p *phase1Proto) Init(ctx *congest.Ctx) {
	v := ctx.Node()
	if ctx.Degree() == 0 {
		return
	}
	count := 0
	if !p.refill {
		count = p.w.prm.Eta
		if !p.w.prm.UniformCounts {
			count *= ctx.Degree()
		}
	}
	count += p.extra[v]
	if p.topUp {
		count = max(0, count-int(p.w.st.owned[v]))
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

func (p *phase1Proto) Step(ctx *congest.Ctx) {
	in := ctx.Inbox()
	for i := range in {
		p.forward(ctx, readToken(&in[i]))
	}
}

// forward takes walk steps of the token at the executing node until it
// either moves to a neighbor or finishes here (stay steps of the
// Metropolis-Hastings variant are free: they consume walk steps but no
// messages), storing the coupon when the walk completes.
func (p *phase1Proto) forward(ctx *congest.Ctx, t walkToken) {
	port, rem := p.w.advanceToken(ctx, t)
	if port < 0 {
		p.w.st.addCoupon(ctx.Node(), coupon{
			owner:  walkOwner(t.walkID),
			walkID: t.walkID,
			length: t.total,
		})
		return
	}
	t.remaining = rem
	w0, w1 := t.encode()
	ctx.SendPort(port, kindWalkToken, tokenWords, w0, w1, 0, 0)
}
