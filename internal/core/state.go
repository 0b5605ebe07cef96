package core

import (
	"distwalk/internal/graph"
)

// coupon is an unused short walk: it lives at the walk's destination node
// and names the owner (the walk's start), so that SAMPLE-DESTINATION can
// sample it and stitching can jump to it. "Only the destination of each of
// these walks is aware of its source" (Section 2.1).
type coupon struct {
	owner  graph.NodeID
	walkID int64
	length int32
	// refill marks coupons minted by GET-MORE-WALKS, whose trajectories
	// are recorded as aggregate counts (batch identifies the refill) and
	// retraced backward; Phase 1 coupons replay forward, their hops
	// recomputed (see Walker.hopPort).
	refill bool
	batch  int64
}

// gmwKey identifies one aggregated GET-MORE-WALKS flow record at a node:
// "tokens of `batch` that I sent to `nbr`, arriving there with hop counter
// `step`".
type gmwKey struct {
	batch int64
	step  int32
	nbr   graph.NodeID
}

// netState is the per-node persistent state of the walk system: short-walk
// coupons, local walk-ID sequencing and GET-MORE-WALKS flow ledgers.
// Indexed by node; each node only ever touches its own slot, preserving
// the locality discipline of the model.
//
// No node stores the hops it forwarded: a hop is a draw keyed by (seed,
// walk ID, step), which the node recomputes when regeneration replays the
// walk (Walker.hopPort). A GET-MORE-WALKS bundle carries a count, not
// token identities, so its hops cannot be keyed that way; the flow
// ledgers record them instead, on every refill.
//
// All per-node stores are flat, slab-backed shelves (see slab.go) rather
// than Go maps: coupons are one list per node carved from one slab, flow
// ledgers are open-addressed over int32 slot tables, and clearing
// truncates instead of freeing. Together with reset this makes the whole
// structure warm-reusable: a pooled worker serves request after request
// without reallocating any of it, and the simulated execution stays
// bit-identical to a freshly built state (the shelves preserve append
// order, swap-remove semantics and exact-key lookup of the old maps).
type netState struct {
	// coupons[v] shelves the unused coupons held at v, one flat list per
	// node, carved from couponSlab (see provisionCoupons).
	coupons    []couponShelf
	couponSlab []coupon
	carved     couponLayout // what couponSlab was last carved for
	// gmw[v] is v's count-aggregated GET-MORE-WALKS flow ledger: tokens
	// sent per (batch, step, nbr) and how many of each flow earlier
	// backward retraces consumed (sampling without replacement keeps joint
	// retraces exact).
	gmw []gmwShelf
	// seq[v] is v's local counter for minting walk IDs.
	seq []uint32
	// owned[v] counts v's own walks that are still unused coupons, as v
	// can tell locally: the walks it started, less those whose
	// SAMPLE-DESTINATION result named v as their owner.
	owned []int32

	// mark/markEpoch is a reusable node-marking scratch (epoch-stamped
	// visited set) for protocol steps that need a small dedup — e.g. the
	// backward retrace's distinct-neighbor query fan-out.
	mark      []uint32
	markEpoch uint32
}

func newNetState(n int) *netState {
	return &netState{
		coupons: make([]couponShelf, n),
		gmw:     make([]gmwShelf, n),
		seq:     make([]uint32, n),
		owned:   make([]int32, n),
		mark:    make([]uint32, n),
	}
}

// reset returns the state to that of a freshly built netState — empty
// shelves and zeroed walk-ID counters — while keeping every slab's
// capacity.
// This is what lets a pooled worker's walker serve many sequential
// requests warm: same observable behaviour as newNetState(n), none of the
// allocation.
func (s *netState) reset() {
	for v := range s.coupons {
		s.coupons[v].clear()
		s.gmw[v].clear()
	}
	clear(s.seq)
	clear(s.owned)
	// The mark epoch deliberately survives: stamps from before the reset
	// are stale by construction.
}

// couponSlack is how many times its expected Phase 1 inventory a node's
// carved coupon list holds: room for the spread of a walk's endpoint, the
// sources' extra walks and GET-MORE-WALKS refills.
const couponSlack = 4

// couponLayout is what a node's expected Phase 1 inventory depends on
// besides the graph. The zero value means no list is carved yet.
type couponLayout struct {
	eta                 int
	uniform, metropolis bool
}

// starts returns how many walks Phase 1 starts at v, leaving out the
// sources' extra walks (phase1Proto.Init).
func (l couponLayout) starts(g *graph.G, v graph.NodeID) int {
	switch d := g.Degree(v); {
	case d == 0:
		return 0
	case l.uniform:
		return l.eta
	default:
		return l.eta * d
	}
}

// room returns the carve of v's coupon list, given the total walks Phase 1
// starts: couponSlack times the larger of v's own starts and its
// stationary share of the total (deg(v)/2m for the simple walk, 1/n under
// Metropolis). A short walk's endpoint law moves from the start law toward
// the stationary one, so the larger of the two is what v holds in the
// usual case; with the default parameters both are η·deg(v). The shares
// round down, so the carves sum to at most 2·couponSlack times the total.
func (l couponLayout) room(g *graph.G, total int, v graph.NodeID) int {
	d := g.Degree(v)
	if d == 0 {
		return 0
	}
	share := total / g.N()
	if !l.metropolis {
		share = total * d / (2 * g.M())
	}
	return couponSlack * max(l.starts(g, v), share)
}

// provisionCoupons empties every node's coupon list before Phase 1 (re-
// provisioning drops the previous inventory; the flow ledgers survive so
// previously returned walks remain retraceable). The first time, and
// whenever η or the walk's counts or target change, it carves every list
// anew from the one coupon slab, each list's capacity capped at its room
// so that an overflow reallocates that node's list alone. Otherwise it
// only truncates, so a list that once outgrew its carve keeps its grown
// capacity instead of regrowing on every warm request.
func (s *netState) provisionCoupons(g *graph.G, prm Params) {
	clear(s.owned)
	l := couponLayout{eta: prm.Eta, uniform: prm.UniformCounts, metropolis: prm.Metropolis}
	if l == s.carved {
		for v := range s.coupons {
			s.coupons[v].clear()
		}
		return
	}
	total := 0
	for v := range s.coupons {
		total += l.starts(g, graph.NodeID(v))
	}
	size := 0
	for v := range s.coupons {
		size += l.room(g, total, graph.NodeID(v))
	}
	if cap(s.couponSlab) < size {
		s.couponSlab = make([]coupon, size)
	}
	off := 0
	for v := range s.coupons {
		end := off + l.room(g, total, graph.NodeID(v))
		s.coupons[v].list = s.couponSlab[off:off:end]
		off = end
	}
	s.carved = l
}

// recordGMWSend remembers that node at routed `count` tokens of `key.batch`
// toward key.nbr, arriving there with hop counter key.step.
func (s *netState) recordGMWSend(at graph.NodeID, key gmwKey, count int32) {
	s.gmw[at].rec(key, true).sent += count
}

// gmwAvailable returns how many tokens of the flow remain unclaimed by
// backward retraces.
func (s *netState) gmwAvailable(at graph.NodeID, key gmwKey) int32 {
	r := s.gmw[at].rec(key, false)
	if r == nil {
		return 0
	}
	return r.sent - r.used
}

// claimGMW consumes one token of the flow.
func (s *netState) claimGMW(at graph.NodeID, key gmwKey) {
	s.gmw[at].rec(key, true).used++
}

// newWalkID mints a network-unique walk ID at node v.
func (s *netState) newWalkID(v graph.NodeID) int64 {
	id := int64(v)<<32 | int64(s.seq[v])
	s.seq[v]++
	return id
}

// walkOwner extracts the minting node from a walk ID.
func walkOwner(walkID int64) graph.NodeID { return graph.NodeID(walkID >> 32) }

func (s *netState) addCoupon(at graph.NodeID, c coupon) {
	s.coupons[at].add(c)
}

// takeCoupon removes the coupon with the given walkID owned by owner from
// node at, reporting whether it was present. The scan is linear in node
// at's coupons — O(local state), never O(network) — and owner's other
// coupons keep the order a swap-remove within owner's list leaves them in.
func (s *netState) takeCoupon(at, owner graph.NodeID, walkID int64) bool {
	return s.coupons[at].take(owner, walkID)
}

// couponCount returns how many unused coupons owned by owner node at
// holds, and couponAt the i-th of them in append order.
func (s *netState) couponCount(at, owner graph.NodeID) int { return s.coupons[at].count(owner) }

func (s *netState) couponAt(at, owner graph.NodeID, i int) coupon {
	return s.coupons[at].nth(owner, i)
}

// beginMark starts a fresh node-marking scratch epoch.
func (s *netState) beginMark() {
	s.markEpoch++
	if s.markEpoch == 0 {
		clear(s.mark)
		s.markEpoch = 1
	}
}

// markNode marks v in the current scratch epoch, reporting whether it was
// already marked.
func (s *netState) markNode(v graph.NodeID) bool {
	if s.mark[v] == s.markEpoch {
		return true
	}
	s.mark[v] = s.markEpoch
	return false
}

// couponTotal counts all unused coupons in the network owned by owner
// (test/diagnostic helper; protocols count locally instead). It scans
// every node's list once: O(n + total coupons).
func (s *netState) couponTotal(owner graph.NodeID) int {
	total := 0
	for v := range s.coupons {
		total += s.coupons[v].count(owner)
	}
	return total
}
