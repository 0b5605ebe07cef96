package core

import (
	"slices"

	"distwalk/internal/graph"
)

// The slab-backed coupon store of the protocol layer. The walk protocols
// used to keep a per-node Go map of coupons by owner, allocated on first
// touch and thrown away per request; at service scale the map machinery —
// bucket allocation, hashing boxed keys, GC scanning — dominated the
// per-walk cost once the engine itself went zero-alloc. The coupon shelf
// is instead one flat list per node in append order, carved from one slab
// sized by the expected Phase 1 inventory (see netState.provisionCoupons);
// an owner's coupons are its subsequence, and clearing truncates instead
// of freeing.
//
// Determinism: the list preserves append order and swap-remove semantics,
// so the flat store behaves bit-identically to the map it replaced (see
// TestCouponShelfMatchesReference).

// couponShelf holds a node's unused coupons as one flat list in append
// order. An owner's coupons are its subsequence of the list, which is
// exactly the per-owner list the map-backed store kept: take swap-removes
// within that subsequence, so the uniform coupon sampling of
// SAMPLE-DESTINATION consumes RNG identically. A node holds about its
// Phase 1 starts or its stationary share of all starts, so the scans below
// are short; a list carved from the walker's slab
// (netState.provisionCoupons) has a capped capacity, and an overflow
// reallocates that node's list alone.
type couponShelf struct {
	list []coupon
}

func (s *couponShelf) add(c coupon) { s.list = append(s.list, c) }

// count returns how many of the node's coupons owner holds.
func (s *couponShelf) count(owner graph.NodeID) int {
	n := 0
	for i := range s.list {
		if s.list[i].owner == owner {
			n++
		}
	}
	return n
}

// nth returns owner's i-th coupon in its subsequence; i < count(owner).
func (s *couponShelf) nth(owner graph.NodeID, i int) coupon {
	for j := range s.list {
		if s.list[j].owner == owner {
			if i == 0 {
				return s.list[j]
			}
			i--
		}
	}
	panic("core: coupon index out of range")
}

// take removes owner's coupon with the given walkID, reporting whether it
// was present: owner's last coupon moves into the taken slot, and the gap
// it leaves closes without reordering any other owner's coupons. The
// scans are linear in the node's local coupons — O(local), never a global
// scan: every node only touches its own shelf.
func (s *couponShelf) take(owner graph.NodeID, walkID int64) bool {
	at := slices.IndexFunc(s.list, func(c coupon) bool { return c.owner == owner && c.walkID == walkID })
	if at < 0 {
		return false
	}
	last := len(s.list) - 1
	for s.list[last].owner != owner {
		last--
	}
	s.list[at] = s.list[last]
	s.list = slices.Delete(s.list, last, last+1)
	return true
}

// clear empties the shelf keeping the list's capacity.
func (s *couponShelf) clear() { s.list = s.list[:0] }
