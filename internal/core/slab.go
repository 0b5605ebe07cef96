package core

import (
	"slices"

	"distwalk/internal/graph"
	"distwalk/internal/rng"
)

// Slab-backed per-node stores for the protocol layer. The walk protocols
// used to keep per-node Go maps (coupons by owner, GET-MORE-WALKS flow
// ledgers) that were allocated on first touch and thrown away
// per request; at service scale the map machinery — bucket allocation,
// hashing boxed keys, GC scanning — dominated the per-walk cost once the
// engine itself went zero-alloc. Both shelves below are flat, and only the
// flow shelf hashes:
//
//   - The coupon shelf is one flat list per node in append order, carved
//     from one slab sized by the expected Phase 1 inventory (see
//     netState.provisionCoupons); an owner's coupons are its subsequence.
//   - The flow shelf (GMW ledgers) indexes exact (batch, step, nbr) keys
//     with an open-addressed slot table: a []int32 of slab-index+1 values
//     (0 = empty) probed linearly from a mixed hash, over parallel
//     key/record slabs. Entries are never deleted individually, so linear
//     probing stays exact without tombstones; clearing is a memclr plus a
//     truncation, never a free.
//
// Determinism: lookups are by exact key, lists preserve append order and
// swap-remove semantics, and nothing here iterates a table in hash order
// on an RNG- or message-relevant path — so a flat store behaves bit-
// identically to the map it replaced (see TestCouponShelfMatchesReference
// and friends).

// hash mixes a flow key into a slot table's probe start.
func (k gmwKey) hash() uint64 {
	return rng.Mix64(uint64(k.batch)) ^ rng.Mix64(uint64(uint32(k.step))<<32|uint64(uint32(k.nbr)))
}

// slotTable is the flow shelf's open-addressed index: it maps a key to an
// index into the shelf's parallel key/record slabs. The caller owns the
// key slab (keys[i] is the key of slab entry i); the table only stores
// slot positions, so clearing it is a memclr and growth rehashes from the
// slab, allocating nothing but the new table.
type slotTable struct {
	slots []int32 // slab index + 1, 0 = empty
}

// find returns the slab index of k, or -1.
func (t *slotTable) find(keys []gmwKey, k gmwKey) int {
	if len(t.slots) == 0 {
		return -1
	}
	for i := k.hash() & uint64(len(t.slots)-1); ; i = (i + 1) & uint64(len(t.slots)-1) {
		v := t.slots[i]
		if v == 0 {
			return -1
		}
		if keys[v-1] == k {
			return int(v - 1)
		}
	}
}

// add indexes keys[idx] (which the caller just appended), growing to keep
// the load factor under 3/4 (rehashing every slab entry on growth).
func (t *slotTable) add(keys []gmwKey, idx int) {
	if len(t.slots) == 0 || 4*(idx+1) > 3*len(t.slots) {
		n := 2 * len(t.slots)
		if n < 8 {
			n = 8
		}
		t.slots = make([]int32, n)
		for j := 0; j < idx; j++ {
			t.place(keys[j].hash(), int32(j+1))
		}
	}
	t.place(keys[idx].hash(), int32(idx+1))
}

// place writes v at the first free slot of h's probe sequence.
func (t *slotTable) place(h uint64, v int32) {
	i := h & uint64(len(t.slots)-1)
	for t.slots[i] != 0 {
		i = (i + 1) & uint64(len(t.slots)-1)
	}
	t.slots[i] = v
}

func (t *slotTable) clear() { clear(t.slots) }

// --- couponShelf: one node's unused coupons ---

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

// --- gmwShelf: one node's GET-MORE-WALKS flow ledger ---

// gmwRec is one aggregated flow record: how many tokens of `key.batch`
// this node routed to key.nbr arriving with hop counter key.step (sent),
// and how many of them earlier backward retraces already claimed (used).
type gmwRec struct {
	sent int32
	used int32
}

// gmwShelf stores a node's flow records with open-addressed lookup on the
// (batch, step, nbr) triple; keys and records are parallel slabs.
type gmwShelf struct {
	tab  slotTable
	keys []gmwKey
	recs []gmwRec
}

// rec returns the record for key, inserting a zero record when create is
// set; nil otherwise.
func (s *gmwShelf) rec(key gmwKey, create bool) *gmwRec {
	idx := s.tab.find(s.keys, key)
	if idx < 0 {
		if !create {
			return nil
		}
		idx = len(s.keys)
		s.keys = append(s.keys, key)
		s.recs = append(s.recs, gmwRec{})
		s.tab.add(s.keys, idx)
	}
	return &s.recs[idx]
}

func (s *gmwShelf) clear() {
	s.keys = s.keys[:0]
	s.recs = s.recs[:0]
	s.tab.clear()
}
