package core

import (
	"testing"

	"distwalk/internal/graph"
	"distwalk/internal/rng"
)

// Property tests pinning the flat slab-backed stores to the map-based
// reference semantics they replaced. The protocols' determinism (and the
// golden counter tests) depend on three behavioural contracts:
//
//   - coupon buckets preserve exact append order, and take is the same
//     swap-remove the old map store used;
//   - GMW flow records accumulate per exact (batch, step, nbr) key;
//   - a walk's recorded path reads back hop by hop, and ends where its
//     reserved run does.
//
// Each test drives the flat store and a plain map model through the same
// randomized op sequence and demands identical observations throughout.

func TestCouponShelfMatchesReference(t *testing.T) {
	const (
		nodes  = 7
		owners = 9
		ops    = 20000
	)
	r := rng.New(1)
	st := newNetState(nodes)
	ref := make([]map[graph.NodeID][]coupon, nodes)

	refTake := func(at, owner graph.NodeID, walkID int64) bool {
		list := ref[at][owner]
		for i, c := range list {
			if c.walkID == walkID {
				list[i] = list[len(list)-1]
				ref[at][owner] = list[:len(list)-1]
				return true
			}
		}
		return false
	}
	checkLocal := func(at, owner graph.NodeID) {
		got := st.localCoupons(at, owner)
		want := ref[at][owner]
		if len(got) != len(want) {
			t.Fatalf("localCoupons(%d, %d): %d coupons, want %d", at, owner, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("localCoupons(%d, %d)[%d] = %+v, want %+v (order must match)", at, owner, i, got[i], want[i])
			}
		}
	}

	nextID := int64(0)
	var ids []int64 // pool of IDs that may or may not still be stored
	for op := 0; op < ops; op++ {
		at := graph.NodeID(r.Intn(nodes))
		owner := graph.NodeID(r.Intn(owners))
		switch r.Intn(10) {
		case 0, 1, 2, 3: // add
			nextID++
			c := coupon{owner: owner, walkID: nextID, length: int32(r.Intn(64)), refill: r.Intn(2) == 0, batch: int64(r.Intn(5))}
			st.addCoupon(at, c)
			if ref[at] == nil {
				ref[at] = make(map[graph.NodeID][]coupon)
			}
			ref[at][owner] = append(ref[at][owner], c)
			ids = append(ids, nextID)
		case 4, 5, 6: // take a (possibly absent) coupon
			if len(ids) == 0 {
				continue
			}
			id := ids[r.Intn(len(ids))]
			got := st.takeCoupon(at, owner, id)
			want := refTake(at, owner, id)
			if got != want {
				t.Fatalf("takeCoupon(%d, %d, %d) = %v, want %v", at, owner, id, got, want)
			}
		case 7, 8: // read
			checkLocal(at, owner)
			gotTotal := st.couponTotal(owner)
			wantTotal := 0
			for v := range ref {
				wantTotal += len(ref[v][owner])
			}
			if gotTotal != wantTotal {
				t.Fatalf("couponTotal(%d) = %d, want %d", owner, gotTotal, wantTotal)
			}
		case 9: // occasional wholesale clear (Phase 1 re-provisioning)
			if r.Intn(50) == 0 {
				st.clearCoupons()
				for v := range ref {
					ref[v] = nil
				}
			}
		}
	}
	for v := 0; v < nodes; v++ {
		for o := 0; o < owners; o++ {
			checkLocal(graph.NodeID(v), graph.NodeID(o))
		}
	}
}

func TestGMWShelfMatchesReference(t *testing.T) {
	const (
		nodes = 5
		ops   = 20000
	)
	r := rng.New(2)
	st := newNetState(nodes)
	st.trail = true
	sent := make([]map[gmwKey]int32, nodes)
	used := make([]map[gmwKey]int32, nodes)
	for v := range sent {
		sent[v] = make(map[gmwKey]int32)
		used[v] = make(map[gmwKey]int32)
	}

	randKey := func() gmwKey {
		return gmwKey{
			batch: int64(r.Intn(6)),
			step:  int32(r.Intn(8)),
			nbr:   graph.NodeID(r.Intn(nodes)),
		}
	}
	for op := 0; op < ops; op++ {
		at := graph.NodeID(r.Intn(nodes))
		key := randKey()
		switch r.Intn(4) {
		case 0, 1:
			c := int32(1 + r.Intn(7))
			st.recordGMWSend(at, key, c)
			sent[at][key] += c
		case 2:
			if sent[at][key] > used[at][key] { // claims follow positive replies
				st.claimGMW(at, key)
				used[at][key]++
			}
		case 3:
			got := st.gmwAvailable(at, key)
			want := sent[at][key] - used[at][key]
			if got != want {
				t.Fatalf("gmwAvailable(%d, %+v) = %d, want %d", at, key, got, want)
			}
		}
	}
	for v := 0; v < nodes; v++ {
		for key, s := range sent[v] {
			if got := st.gmwAvailable(graph.NodeID(v), key); got != s-used[v][key] {
				t.Fatalf("final gmwAvailable(%d, %+v) = %d, want %d", v, key, got, s-used[v][key])
			}
		}
	}
}

// pathModel is the reference the path shelves are held to: the successor
// of every recorded (walk, hop) pair, and each minted walk's run length
// (-1 for a walk minted without a run).
type pathModel struct {
	next map[[2]int64]graph.NodeID
	runs map[int64]int32
	ids  []int64 // minted walks in mint order
}

func newPathModel() *pathModel {
	return &pathModel{next: make(map[[2]int64]graph.NodeID), runs: make(map[int64]int32)}
}

func (m *pathModel) mint(id int64, n int32) {
	m.runs[id] = n
	m.ids = append(m.ids, id)
}

// want is what pathNext must return for hop j of walk id.
func (m *pathModel) want(id int64, j int32) graph.NodeID {
	if n, ok := m.runs[id]; !ok || j >= n {
		return graph.None
	}
	next, ok := m.next[[2]int64{id, int64(j)}]
	if !ok {
		return graph.None
	}
	return next
}

// TestPathShelfReplayMatchesReference drives the path shelves and a map
// keyed by (walk, hop) through the same random mints, hop records and
// reads: walks minted with a run, without one (GET-MORE-WALKS batch and
// coupon IDs, walks minted while the trail was off) and never minted,
// hops never taken, and reads past a run's end.
func TestPathShelfReplayMatchesReference(t *testing.T) {
	const (
		nodes = 6
		ops   = 20000
	)
	r := rng.New(3)
	st := newNetState(nodes)
	st.trail = true
	ref := newPathModel()
	check := func(id int64, j int32) {
		t.Helper()
		if got, want := st.pathNext(id, j), ref.want(id, j); got != want {
			t.Fatalf("pathNext(%#x, %d) = %d, want %d", id, j, got, want)
		}
	}
	var reserved []int64
	for op := 0; op < ops; op++ {
		at := graph.NodeID(r.Intn(nodes))
		switch r.Intn(10) {
		case 0: // a walk with its run
			n := int32(r.Intn(24))
			id := st.newWalk(at, n)
			ref.mint(id, n)
			if n > 0 {
				reserved = append(reserved, id)
			}
		case 1: // a batch or refill-coupon ID, or a walk minted trail-off
			var id int64
			if r.Intn(2) == 0 {
				id = st.newWalkID(at)
			} else {
				st.trail = false
				id = st.newWalk(at, int32(1+r.Intn(8)))
				st.trail = true
			}
			ref.mint(id, -1)
		case 2, 3, 4, 5: // a hop of a reserved walk
			if len(reserved) == 0 {
				continue
			}
			id := reserved[r.Intn(len(reserved))]
			j := int32(r.Intn(int(ref.runs[id])))
			next := graph.NodeID(r.Intn(nodes))
			st.recordHop(id, j, next)
			ref.next[[2]int64{id, int64(j)}] = next
		case 6, 7, 8: // a read, up to a few hops past the run
			if len(ref.ids) == 0 {
				continue
			}
			id := ref.ids[r.Intn(len(ref.ids))]
			check(id, int32(r.Intn(28)))
		case 9: // a seq nobody minted yet
			check(int64(at)<<32|int64(st.seq[at]+uint32(r.Intn(3))), int32(r.Intn(4)))
		}
	}
	for _, id := range ref.ids {
		for j := int32(0); j < 26; j++ {
			check(id, j)
		}
	}
}

// TestNetStateResetMatchesFresh pins the warm-reuse contract at the store
// level: after arbitrary use plus reset, every observation matches a
// freshly built netState driven through the same subsequent ops.
func TestNetStateResetMatchesFresh(t *testing.T) {
	const nodes = 5
	warm := newNetState(nodes)
	warm.trail = true
	// Dirty the warm state thoroughly.
	r := rng.New(4)
	for i := 0; i < 3000; i++ {
		at := graph.NodeID(r.Intn(nodes))
		warm.addCoupon(at, coupon{owner: graph.NodeID(r.Intn(nodes)), walkID: int64(i)})
		id := warm.newWalk(at, int32(1+r.Intn(9)))
		warm.recordHop(id, int32(r.Intn(9)%int(warm.paths[at].runs[walkSeq(id)].n)), graph.NodeID(r.Intn(nodes)))
		warm.recordGMWSend(at, gmwKey{batch: int64(r.Intn(3)), step: int32(r.Intn(4)), nbr: graph.NodeID(r.Intn(nodes))}, 1)
		warm.newWalkID(at)
	}
	warm.reset()
	fresh := newNetState(nodes)
	warm.trail, fresh.trail = true, true

	// Drive both through identical ops and compare all observations.
	r = rng.New(5)
	var walks []int64 // minted with a run after the reset
	for i := 0; i < 3000; i++ {
		at := graph.NodeID(r.Intn(nodes))
		owner := graph.NodeID(r.Intn(nodes))
		key := gmwKey{batch: int64(r.Intn(3)), step: int32(r.Intn(4)), nbr: owner}
		switch r.Intn(7) {
		case 0:
			a, b := warm.newWalkID(at), fresh.newWalkID(at)
			if a != b {
				t.Fatalf("newWalkID(%d): warm %d, fresh %d", at, a, b)
			}
			c := coupon{owner: owner, walkID: a}
			warm.addCoupon(at, c)
			fresh.addCoupon(at, c)
		case 1:
			n := int32(1 + r.Intn(9))
			a, b := warm.newWalk(at, n), fresh.newWalk(at, n)
			if a != b {
				t.Fatalf("newWalk(%d): warm %d, fresh %d", at, a, b)
			}
			walks = append(walks, a)
		case 2:
			if len(walks) == 0 {
				continue
			}
			id := walks[r.Intn(len(walks))]
			j := int32(r.Intn(int(fresh.paths[walkOwner(id)].runs[walkSeq(id)].n)))
			warm.recordHop(id, j, owner)
			fresh.recordHop(id, j, owner)
		case 3:
			warm.recordGMWSend(at, key, 2)
			fresh.recordGMWSend(at, key, 2)
		case 4:
			if a, b := warm.gmwAvailable(at, key), fresh.gmwAvailable(at, key); a != b {
				t.Fatalf("gmwAvailable: warm %d, fresh %d", a, b)
			}
		case 5:
			aw := warm.localCoupons(at, owner)
			fr := fresh.localCoupons(at, owner)
			if len(aw) != len(fr) {
				t.Fatalf("localCoupons: warm %d, fresh %d", len(aw), len(fr))
			}
			for i := range aw {
				if aw[i] != fr[i] {
					t.Fatalf("localCoupons[%d]: warm %+v, fresh %+v", i, aw[i], fr[i])
				}
			}
		case 6:
			// Any walk ID this node may have minted, before the reset too.
			id := int64(at)<<32 | int64(r.Intn(2000))
			j := int32(r.Intn(11))
			if a, b := warm.pathNext(id, j), fresh.pathNext(id, j); a != b {
				t.Fatalf("pathNext(%#x, %d): warm %d, fresh %d", id, j, a, b)
			}
		}
	}
}
