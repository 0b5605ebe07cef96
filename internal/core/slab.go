package core

import (
	"slices"

	"distwalk/internal/graph"
	"distwalk/internal/rng"
)

// Slab-backed per-node stores for the protocol layer. The walk protocols
// used to keep per-node Go maps (coupons by owner, GET-MORE-WALKS flow
// ledgers, hop indexes) that were allocated on first touch and thrown away
// per request; at service scale the map machinery — bucket allocation,
// hashing boxed keys, GC scanning — dominated the per-walk cost once the
// engine itself went zero-alloc. The coupon and flow shelves replace the
// maps with one shared open-addressed slot table (slotTable) over growable
// slabs; the path shelf needs no table, because a walk ID already is an
// index (owner, seq) and a token already carries its hop counter.
//
//   - The slot table is a []int32 of slab-index+1 values (0 = empty)
//     probed linearly from a mixed hash; clearing is a memclr, never a
//     free.
//   - Values live in parallel slabs appended in insertion order; clearing
//     truncates to :0, so capacity survives across requests (warm reuse).
//   - Entries are never deleted individually (the protocols only ever add,
//     mutate in place, or clear wholesale), which keeps linear probing
//     exact without tombstones.
//
// Determinism: lookups are by exact key, lists preserve append order and
// swap-remove semantics, and nothing here iterates a table in hash order
// on an RNG- or message-relevant path — so a flat store behaves bit-
// identically to the map it replaced (see TestCouponShelfMatchesReference
// and friends).

// slabKey is a key usable in a slotTable: comparable for probe equality,
// self-hashing (via rng.Mix64) for probe starts.
type slabKey interface {
	comparable
	hash() uint64
}

// ownerKey adapts the coupon shelf's owner IDs to slabKey.
type ownerKey graph.NodeID

func (k ownerKey) hash() uint64 { return rng.Mix64(uint64(uint32(k))) }
func (k gmwKey) hash() uint64 {
	return rng.Mix64(uint64(k.batch)) ^ rng.Mix64(uint64(uint32(k.step))<<32|uint64(uint32(k.nbr)))
}

// slotTable is the shared open-addressed index of the shelves: it maps a
// key to an index into the owner's parallel key/value slabs. The caller
// owns the key slab (keys[i] is the key of slab entry i); the table only
// stores slot positions, so clearing it is a memclr and growth rehashes
// from the slab, allocating nothing but the new table.
type slotTable[K slabKey] struct {
	slots []int32 // slab index + 1, 0 = empty
}

// find returns the slab index of k, or -1.
func (t *slotTable[K]) find(keys []K, k K) int {
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
func (t *slotTable[K]) add(keys []K, idx int) {
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
func (t *slotTable[K]) place(h uint64, v int32) {
	i := h & uint64(len(t.slots)-1)
	for t.slots[i] != 0 {
		i = (i + 1) & uint64(len(t.slots)-1)
	}
	t.slots[i] = v
}

func (t *slotTable[K]) clear() { clear(t.slots) }

// --- couponShelf: one node's unused coupons, grouped by owner ---

// couponShelf stores a node's coupons bucketed by owner. owners and lists
// are parallel slabs in first-touch order. Bucket lists keep exact append
// order, and removal is the same swap-remove the map-based store used, so
// the uniform coupon sampling of SAMPLE-DESTINATION consumes RNG
// identically.
type couponShelf struct {
	tab    slotTable[ownerKey]
	owners []ownerKey
	lists  [][]coupon
}

// bucket returns the slab index of owner's list, or -1. With create it
// inserts an empty bucket.
func (s *couponShelf) bucket(owner graph.NodeID, create bool) int {
	idx := s.tab.find(s.owners, ownerKey(owner))
	if idx >= 0 || !create {
		return idx
	}
	idx = len(s.owners)
	s.owners = append(s.owners, ownerKey(owner))
	if idx < cap(s.lists) {
		s.lists = s.lists[:idx+1] // recycle the truncated bucket's capacity
	} else {
		s.lists = append(s.lists, nil)
	}
	s.tab.add(s.owners, idx)
	return idx
}

func (s *couponShelf) add(c coupon) {
	idx := s.bucket(c.owner, true)
	s.lists[idx] = append(s.lists[idx], c)
}

// get returns owner's coupon list (nil if none), in append order.
func (s *couponShelf) get(owner graph.NodeID) []coupon {
	idx := s.bucket(owner, false)
	if idx < 0 {
		return nil
	}
	return s.lists[idx]
}

// take removes the coupon with the given walkID from owner's list by
// swap-remove, reporting whether it was present. The scan is linear in
// the node's local coupons for that owner — O(local), exactly like the
// map-backed store (and unlike a global scan, which the protocols never
// need: every node only touches its own shelf).
func (s *couponShelf) take(owner graph.NodeID, walkID int64) bool {
	idx := s.bucket(owner, false)
	if idx < 0 {
		return false
	}
	list := s.lists[idx]
	for i, c := range list {
		if c.walkID == walkID {
			list[i] = list[len(list)-1]
			s.lists[idx] = list[:len(list)-1]
			return true
		}
	}
	return false
}

// clear empties the shelf keeping every slab's capacity: bucket lists and
// the owner slab truncate, the slot table memclrs.
func (s *couponShelf) clear() {
	for i := range s.lists {
		s.lists[i] = s.lists[i][:0]
	}
	s.lists = s.lists[:0]
	s.owners = s.owners[:0]
	s.tab.clear()
}

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
	tab  slotTable[gmwKey]
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

// --- pathShelf: the paths of the walks one node minted ---

// pathRun locates one walk's path in its owner's slab: the successor the
// walk took at hop j is slab[base+j], for j < n.
type pathRun struct {
	base, n int32
}

// pathShelf stores the paths of the walk tokens a node minted, one run per
// walk indexed by the walk's local sequence number; seqs minted without a
// run (GET-MORE-WALKS batches and their coupons, walks minted with the
// trail off) hold an empty one. A walk ID's seq is its index, so neither
// recording nor replay hashes anything.
type pathShelf struct {
	runs []pathRun
	slab []graph.NodeID
}

// reserve appends the run of walk seq, n slots all graph.None until the
// token's hops fill them. seq must be the most recently minted at this
// node (runs are reserved right after minting).
func (s *pathShelf) reserve(seq uint32, n int32) {
	for len(s.runs) < int(seq) {
		s.runs = append(s.runs, pathRun{})
	}
	base := len(s.slab)
	s.runs = append(s.runs, pathRun{base: int32(base), n: n})
	s.slab = slices.Grow(s.slab, int(n))[:base+int(n)]
	for i := base; i < len(s.slab); i++ {
		s.slab[i] = graph.None
	}
}

// set records next as hop j of walk seq, which must lie in its run.
func (s *pathShelf) set(seq uint32, j int32, next graph.NodeID) {
	s.slab[s.runs[seq].base+j] = next
}

// get returns hop j of walk seq, or graph.None past the end of its run.
func (s *pathShelf) get(seq uint32, j int32) graph.NodeID {
	if int(seq) >= len(s.runs) {
		return graph.None
	}
	r := s.runs[seq]
	if j >= r.n {
		return graph.None
	}
	return s.slab[r.base+j]
}

func (s *pathShelf) clear() {
	s.runs = s.runs[:0]
	s.slab = s.slab[:0]
}
