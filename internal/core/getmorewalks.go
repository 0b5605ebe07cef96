package core

import (
	"slices"

	"distwalk/internal/congest"
	"distwalk/internal/graph"
)

// gmwMsg is the count-aggregated token bundle of GET-MORE-WALKS
// (Algorithm 2): "it sends only the source ID and a count to each
// neighbor" — one O(log n)-bit message per edge per step regardless of how
// many of the batch's tokens cross it, which is what makes Lemma 2.2's
// O(λ) bound congestion-free. steps is the number of hops the bundled
// tokens have completed so far.
type gmwMsg struct {
	batch int64 // encodes the owner (walkOwner) and the refill instance
	count int32
	steps int32
}

// gmwMsgWords is a bundle's size in O(log n)-bit words.
const gmwMsgWords = 3

func (t gmwMsg) encode() (w0, w1 uint64) { return uint64(t.batch), congest.Pack2(t.count, t.steps) }

func readGMWMsg(m *congest.Message) gmwMsg {
	count, steps := congest.Unpack2(m.W[1])
	return gmwMsg{batch: int64(m.W[0]), count: count, steps: steps}
}

// gmwProto refills the exhausted connector v with ⌊ℓ/λ⌋ fresh short walks.
// Tokens walk λ fixed steps and are then extended by reservoir sampling:
// at extension step i (i = steps−λ), each token stops independently with
// probability 1/(λ−i), which makes the final length uniform on [λ, 2λ−1]
// (Lemma 2.4) without ever sending per-token lengths.
type gmwProto struct {
	w      *Walker
	owner  graph.NodeID
	batch  int64
	count  int
	lambda int32
}

func (p *gmwProto) Init(ctx *congest.Ctx) {
	if ctx.Node() != p.owner || p.count == 0 {
		return
	}
	p.w.st.owned[p.owner] += int32(p.count)
	p.processTokens(ctx, 0, int32(p.count), 0)
}

func (p *gmwProto) Step(ctx *congest.Ctx) {
	in := ctx.Inbox()
	for i := range in {
		t := readGMWMsg(&in[i])
		if t.batch != p.batch {
			continue
		}
		p.processTokens(ctx, i, t.count, t.steps)
	}
}

// gmwFlow groups outgoing tokens by (neighbor, arrival step): with the
// simple walk every token of a bundle leaves at the same step, so this is
// one message per neighbor exactly as Algorithm 2 requires; Metropolis
// stays can spread a bundle over a few arrival steps, still aggregated.
// Moves collect one entry each in the walker's reusable buffer and are
// folded after the send-order sort brings equal pairs together — no
// throwaway map, no per-token scans.
type gmwFlow struct {
	nbr   graph.NodeID
	steps int32
	count int32
}

// processTokens walks each of the `count` tokens of the bundle in inbox
// slot `slot` (having completed `steps` hops and currently at the
// executing node) forward: reservoir stop checks at every step ≥ λ, stay
// steps consumed locally, moves aggregated into per-(neighbor, step)
// messages. Token j draws from refillKey.
func (p *gmwProto) processTokens(ctx *congest.Ctx, slot int, count, steps int32) {
	v := ctx.Node()
	out := p.w.gmwOut[v][:0]
	for j := int32(0); j < count; j++ {
		out = p.walkOne(ctx, refillKey(ctx.SeedMix(), p.batch, v, ctx.Round(), slot, j), steps, out)
	}
	// Deterministic send order: by neighbor, then arrival step (the same
	// order the map-based aggregation sorted its keys into). walkOne
	// appends one entry per move, so after the sort equal (nbr, steps)
	// pairs are adjacent and fold into one record in a single pass —
	// O(c log c) per bundle regardless of the node's degree.
	slices.SortFunc(out, func(a, b gmwFlow) int {
		if a.nbr != b.nbr {
			return int(a.nbr) - int(b.nbr)
		}
		return int(a.steps) - int(b.steps)
	})
	for i := 0; i < len(out); {
		f := out[i]
		for i++; i < len(out) && out[i].nbr == f.nbr && out[i].steps == f.steps; i++ {
			f.count += out[i].count
		}
		p.w.st.recordGMWSend(v, gmwKey{batch: p.batch, step: f.steps, nbr: f.nbr}, f.count)
		w0, w1 := gmwMsg{batch: p.batch, count: f.count, steps: f.steps}.encode()
		ctx.SendTo(f.nbr, kindGMWMsg, gmwMsgWords, w0, w1, 0, 0)
	}
	p.w.gmwOut[v] = out[:0]
}

// walkOne advances the token keyed key: stop with probability 1/(λ−i) at
// each step s = λ+i (uniform length on [λ, 2λ−1], Lemma 2.4), otherwise
// take a walk step; Metropolis stays advance s without leaving the node.
// Moves accumulate into out, which is returned (it may grow).
func (p *gmwProto) walkOne(ctx *congest.Ctx, key uint64, s int32, out []gmwFlow) []gmwFlow {
	v := ctx.Node()
	for {
		if s >= p.lambda {
			if bounded(fold(key, uint64(s)<<1), uint64(2*p.lambda-s)) == 0 {
				p.w.st.addCoupon(v, coupon{
					owner:  p.owner,
					walkID: p.w.st.newWalkID(v),
					length: s,
					refill: true,
					batch:  p.batch,
				})
				return out
			}
		}
		if ctx.Degree() == 0 {
			return out // isolated: the token has nowhere to go
		}
		port := p.w.portAt(v, fold(key, uint64(s)<<1|1))
		if port < 0 {
			s++ // a Metropolis stay: walk step consumed locally
			continue
		}
		return append(out, gmwFlow{nbr: ctx.Neighbors()[port].To, steps: s + 1, count: 1})
	}
}

// getMoreWalks runs GET-MORE-WALKS(v): Θ(ℓ/λ) new walks owned by v.
func (w *Walker) getMoreWalks(v graph.NodeID, ell, lambda int) (congest.Result, error) {
	count := ell / lambda
	if count < 1 {
		count = 1
	}
	if w.gmwOut == nil {
		w.gmwOut = make([][]gmwFlow, w.g.N())
	}
	p := &gmwProto{
		w:      w,
		owner:  v,
		batch:  w.st.newWalkID(v),
		count:  count,
		lambda: int32(lambda),
	}
	return w.net.Run(p)
}
