// Package pathverify implements the PATH-VERIFICATION problem of
// Section 3 (Definition 3.1) and the two constructions behind the paper's
// Ω(√(ℓ/log ℓ) + D) lower bound for distributed random walks:
//
//   - a natural distributed verification protocol in the paper's
//     token-forwarding class — nodes store, merge and selectively forward
//     verified segments [i, j], one O(log n)-bit interval per edge per
//     round — measured on the hard instance G_n (Definition 3.3), where
//     the measured round count exhibits the √ℓ shape of Theorem 3.2
//     despite the O(log n) diameter;
//   - the forced walk of Theorem 3.7: on the exponentially
//     weighted variant G'_n a random walk follows the path P with
//     probability ≥ 1 − 1/n, so a walk is as hard to certify as a path.
package pathverify

import (
	"fmt"
	"sync/atomic"

	"distwalk/internal/congest"
	"distwalk/internal/graph"
	"distwalk/internal/rng"
)

// ivMsg is one verified segment in flight; senderOrder is the sender's
// path position (0 for non-path nodes), which the receiver needs for the
// edge-witness extension rule. Everything is O(log n) bits.
type ivMsg struct {
	lo, hi      int32
	senderOrder int32
}

const kindIvMsg uint16 = 1

func (ivMsg) Words() int   { return 3 }
func (ivMsg) Kind() uint16 { return kindIvMsg }
func (m ivMsg) Encode() [congest.PayloadWords]uint64 {
	return [congest.PayloadWords]uint64{congest.Pack2(m.lo, m.hi), uint64(uint32(m.senderOrder))}
}
func (ivMsg) Decode(w [congest.PayloadWords]uint64) ivMsg {
	lo, hi := congest.Unpack2(w[0])
	return ivMsg{lo: lo, hi: hi, senderOrder: int32(uint32(w[1]))}
}

// Result reports a PATH-VERIFICATION run.
type Result struct {
	// Verified reports whether some node verified the whole path [1, ℓ].
	Verified bool
	// Verifier is the first node to verify it (undefined if !Verified).
	Verifier graph.NodeID
	// Rounds is the number of rounds until verification (or quiescence).
	Rounds int
	// Cost is the full simulated cost.
	Cost congest.Result
}

// sentKey identifies one deduplicated transmission: interval [lo, hi] to
// neighbor nbr (parallel edges to the same neighbor share the entry, as
// they should — resending a known interval on a second cable adds no
// information).
type sentKey struct {
	nbr    graph.NodeID
	lo, hi int32
}

// sentSet is an open-addressed, epoch-stamped set of sentKeys: a slot is
// live only when its stamp matches the verifier's current run epoch, so
// starting a new run clears every node's set for free. Slabs grow to the
// node's high-water mark and are never freed.
type sentSet struct {
	stamp []uint32
	keys  []sentKey
	live  int32 // entries added this epoch
}

func sentHash(k sentKey) uint64 {
	return rng.Mix64(uint64(uint32(k.lo))|uint64(uint32(k.hi))<<32) ^ rng.Mix64(uint64(uint32(k.nbr)))
}

// add inserts k for the given epoch, reporting whether it was absent.
func (s *sentSet) add(epoch uint32, k sentKey) bool {
	if len(s.keys) == 0 || 4*(int(s.live)+1) > 3*len(s.keys) {
		n := 2 * len(s.keys)
		if n < 8 {
			n = 8
		}
		stamp := make([]uint32, n)
		keys := make([]sentKey, n)
		for i, st := range s.stamp {
			if st != epoch {
				continue
			}
			j := sentHash(s.keys[i]) & uint64(n-1)
			for stamp[j] == epoch {
				j = (j + 1) & uint64(n-1)
			}
			stamp[j], keys[j] = epoch, s.keys[i]
		}
		s.stamp, s.keys = stamp, keys
	}
	i := sentHash(k) & uint64(len(s.keys)-1)
	for s.stamp[i] == epoch {
		if s.keys[i] == k {
			return false
		}
		i = (i + 1) & uint64(len(s.keys)-1)
	}
	s.stamp[i] = epoch
	s.keys[i] = k
	s.live++
	return true
}

// ivQueue is one neighbor's pending-interval outbox: entries pop by
// advancing head (never by reslicing items forward, which would abandon
// the consumed prefix's capacity), and a drained queue rewinds to its
// full backing array — so repeated runs really do stop allocating once
// the high-water mark is reached.
type ivQueue struct {
	items []iv
	head  int32
}

func (q *ivQueue) empty() bool { return int(q.head) >= len(q.items) }

// push appends; pop and reset rewind the queue whenever it drains, so an
// empty queue always sits at head 0 with its full capacity ahead.
func (q *ivQueue) push(x iv) {
	q.items = append(q.items, x)
}

func (q *ivQueue) pop() iv {
	x := q.items[q.head]
	q.head++
	if q.empty() {
		q.items = q.items[:0]
		q.head = 0
	}
	return x
}

func (q *ivQueue) reset() {
	q.items = q.items[:0]
	q.head = 0
}

// Verifier runs PATH-VERIFICATION instances over one network, owning all
// per-node working state as flat, reusable slabs: interval sets, pending
// outboxes laid out per directed half-edge (off[v]+i addresses node v's
// i-th neighbor queue), and the per-(neighbor, interval) send dedup as
// epoch-stamped open-addressed sets. Repeated Verify calls — the shape of
// a lower-bound sweep over ℓ on one instance — reuse everything and
// allocate only on high-water growth.
//
// A Verifier is not safe for concurrent use (it shares the network, which
// is single-threaded anyway).
type Verifier struct {
	net   *congest.Network
	off   []int32 // half-edge offsets: node v's queues are [off[v], off[v+1])
	sets  []ivSet
	out   []ivQueue
	sent  []sentSet
	seen  []bool // order-validation scratch, sized to the largest ℓ seen
	epoch uint32
}

// NewVerifier builds a Verifier over net.
func NewVerifier(net *congest.Network) *Verifier {
	g := net.Graph()
	n := g.N()
	off := make([]int32, n+1)
	for v := 0; v < n; v++ {
		off[v+1] = off[v] + int32(g.Degree(graph.NodeID(v)))
	}
	return &Verifier{
		net:  net,
		off:  off,
		sets: make([]ivSet, n),
		out:  make([]ivQueue, off[n]),
		sent: make([]sentSet, n),
	}
}

// proto is the verification protocol. Every node keeps a set of maximal
// verified intervals and an outbox per neighbor; each round it sends at
// most one interval per edge (the CONGEST budget). New information is
// produced by two sound rules:
//
//	merge:  intervals sharing a position combine (the class's rule);
//	extend: node v_{b+1} receiving [a, b] directly from v_b has witnessed
//	        the path edge (v_b, v_{b+1}) and verifies [a, b+1]
//	        (symmetrically at the front) — this is how Figure 1(b)'s
//	        node b turns "1" from a into [1, 2].
type proto struct {
	vf     *Verifier
	order  []int32 // 1-based path position per node, 0 if none
	target iv

	// verifier is the ID of the first node to verify the whole target, or
	// -1. Within the final round several nodes can verify; the sequential
	// engine records the first in step order, i.e. the smallest node ID,
	// which the atomic CAS-min reproduces exactly when steps run
	// concurrently on network shards (rounds never race: the run halts at
	// the end of the first verifying round).
	verifier atomic.Int64
}

func (p *proto) Init(ctx *congest.Ctx) {
	v := ctx.Node()
	if o := p.order[v]; o > 0 {
		p.learn(ctx, iv{lo: o, hi: o})
	}
	p.flush(ctx)
}

func (p *proto) Step(ctx *congest.Ctx) {
	v := ctx.Node()
	myOrder := p.order[v]
	for _, m := range ctx.Inbox() {
		if m.Kind != kindIvMsg {
			continue
		}
		msg := congest.As[ivMsg](m)
		got := iv{lo: msg.lo, hi: msg.hi}
		// Edge-witness extension: the message came over a real edge from
		// the segment's endpoint, and this node is the next/previous path
		// position.
		if myOrder > 0 && msg.senderOrder > 0 {
			if msg.senderOrder == msg.hi && myOrder == msg.hi+1 {
				got.hi++
			} else if msg.senderOrder == msg.lo && myOrder == msg.lo-1 {
				got.lo--
			}
		}
		p.learn(ctx, got)
	}
	p.flush(ctx)
}

// learn inserts an interval; when it yields new information, the merged
// maximal interval is queued for every neighbor.
func (p *proto) learn(ctx *congest.Ctx, x iv) {
	v := ctx.Node()
	merged, changed := p.vf.sets[v].insert(x)
	if !changed {
		return
	}
	if merged.contains(p.target) {
		p.claim(v)
	}
	lo, hi := p.vf.off[v], p.vf.off[v+1]
	for e := lo; e < hi; e++ {
		p.vf.out[e].push(merged)
	}
}

// flush sends at most one useful interval per neighbor, skipping entries
// subsumed by later merges and deduplicating per (neighbor, interval).
func (p *proto) flush(ctx *congest.Ctx) {
	v := ctx.Node()
	hs := ctx.Neighbors()
	base := p.vf.off[v]
	pending := false
	for i, h := range hs {
		q := &p.vf.out[base+int32(i)]
		for !q.empty() {
			cand := p.vf.sets[v].maximalContaining(q.pop())
			if !p.vf.sent[v].add(p.vf.epoch, sentKey{nbr: h.To, lo: cand.lo, hi: cand.hi}) {
				continue
			}
			congest.Send(ctx, h.To, ivMsg{lo: cand.lo, hi: cand.hi, senderOrder: p.order[v]})
			break
		}
		if !q.empty() {
			pending = true
		}
	}
	ctx.SetActive(pending)
}

// claim records v as the verifier unless a smaller node ID already did.
func (p *proto) claim(v graph.NodeID) {
	for {
		old := p.verifier.Load()
		if old >= 0 && old <= int64(v) {
			return
		}
		if p.verifier.CompareAndSwap(old, int64(v)) {
			return
		}
	}
}

func (p *proto) Halted() bool { return p.verifier.Load() >= 0 }

// Verify runs the protocol. order[v] gives node v's 1-based path position
// (0 for nodes that are not part of the sequence); ell is the path length
// to verify. It returns the measured rounds and whether some node verified
// [1, ell]; with a valid path assignment verification always succeeds,
// while an invalid sequence reaches quiescence unverified.
func (vf *Verifier) Verify(order []int32, ell int) (*Result, error) {
	n := vf.net.Graph().N()
	if len(order) != n {
		return nil, fmt.Errorf("pathverify: order has %d entries, want %d", len(order), n)
	}
	if ell < 1 {
		return nil, fmt.Errorf("pathverify: ell must be >= 1, got %d", ell)
	}
	if len(vf.seen) < ell+1 {
		vf.seen = make([]bool, ell+1)
	}
	seen := vf.seen[:ell+1]
	clear(seen)
	assigned := 0
	for _, o := range order {
		if o < 0 || int(o) > ell {
			return nil, fmt.Errorf("pathverify: order %d out of range [0,%d]", o, ell)
		}
		if o > 0 {
			if seen[o] {
				return nil, fmt.Errorf("pathverify: duplicate order %d", o)
			}
			seen[o] = true
			assigned++
		}
	}
	if assigned != ell {
		return nil, fmt.Errorf("pathverify: %d of %d positions assigned", assigned, ell)
	}

	// Reset the run state: truncate slabs, bump the dedup epoch. O(n + m)
	// pointer-free writes, no allocation.
	for v := 0; v < n; v++ {
		vf.sets[v].list = vf.sets[v].list[:0]
		vf.sent[v].live = 0
	}
	for e := range vf.out {
		vf.out[e].reset()
	}
	vf.epoch++
	if vf.epoch == 0 { // wrapped: sweep stale stamps so they cannot collide
		for v := range vf.sent {
			clear(vf.sent[v].stamp)
		}
		vf.epoch = 1
	}

	p := &proto{
		vf:     vf,
		order:  order,
		target: iv{lo: 1, hi: int32(ell)},
	}
	p.verifier.Store(-1)
	cost, err := vf.net.Run(p)
	if err != nil {
		return nil, err
	}
	out := &Result{
		Rounds: cost.Rounds,
		Cost:   cost,
	}
	if who := p.verifier.Load(); who >= 0 {
		out.Verified = true
		out.Verifier = graph.NodeID(who)
	}
	return out, nil
}

// Verify runs one PATH-VERIFICATION instance on net (a one-shot
// NewVerifier(net).Verify; loops over many instances should hold a
// Verifier and reuse its slabs).
func Verify(net *congest.Network, order []int32, ell int) (*Result, error) {
	return NewVerifier(net).Verify(order, ell)
}

// GnOrder builds the order assignment for verifying the first ell path
// positions of a lower-bound graph.
func GnOrder(lb *graph.LowerBound, ell int) ([]int32, error) {
	if ell < 1 || ell > lb.PathLen {
		return nil, fmt.Errorf("pathverify: ell %d out of [1,%d]", ell, lb.PathLen)
	}
	order := make([]int32, lb.G.N())
	for i := 1; i <= ell; i++ {
		order[lb.PathNode(i)] = int32(i)
	}
	return order, nil
}
