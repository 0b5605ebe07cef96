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
//   - hop replay pops recorded successors FIFO, and a new replay epoch
//     resets every cursor.
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

func TestHopShelfReplayMatchesReference(t *testing.T) {
	const (
		nodes = 6
		walks = 12
		ops   = 5000
	)
	r := rng.New(3)
	st := newNetState(nodes)
	st.trail = true
	ref := make([]map[int64][]graph.NodeID, nodes)
	for v := range ref {
		ref[v] = make(map[int64][]graph.NodeID)
	}
	for op := 0; op < ops; op++ {
		at := graph.NodeID(r.Intn(nodes))
		wid := int64(r.Intn(walks))
		next := graph.NodeID(r.Intn(nodes))
		st.recordHop(at, wid, next)
		ref[at][wid] = append(ref[at][wid], next)
	}
	// Two replay passes over interleaved (node, walk) cursors: each pass
	// must pop every list FIFO from the start.
	for pass := 0; pass < 2; pass++ {
		st.beginReplay()
		cursors := make(map[[2]int64]int)
		for i := 0; i < 4*ops; i++ {
			at := graph.NodeID(r.Intn(nodes))
			wid := int64(r.Intn(walks))
			ck := [2]int64{int64(at), wid}
			next, ok := st.replayNext(at, wid)
			want := ref[at][wid]
			c := cursors[ck]
			if c < len(want) {
				if !ok || next != want[c] {
					t.Fatalf("pass %d: replayNext(%d, %d) = (%d, %v), want (%d, true)", pass, at, wid, next, ok, want[c])
				}
				cursors[ck] = c + 1
			} else if ok {
				t.Fatalf("pass %d: replayNext(%d, %d) returned %d after the list was exhausted", pass, at, wid, next)
			}
		}
	}
	// hopsOf view matches the reference lists exactly.
	for v := 0; v < nodes; v++ {
		for wid := int64(0); wid < walks; wid++ {
			got := st.hopsOf(graph.NodeID(v), wid)
			want := ref[v][wid]
			if len(got) != len(want) {
				t.Fatalf("hopsOf(%d, %d): %d hops, want %d", v, wid, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("hopsOf(%d, %d)[%d] = %d, want %d", v, wid, i, got[i], want[i])
				}
			}
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
		warm.recordHop(at, int64(r.Intn(9)), graph.NodeID(r.Intn(nodes)))
		warm.recordGMWSend(at, gmwKey{batch: int64(r.Intn(3)), step: int32(r.Intn(4)), nbr: graph.NodeID(r.Intn(nodes))}, 1)
		warm.newWalkID(at)
	}
	warm.reset()
	fresh := newNetState(nodes)
	warm.trail, fresh.trail = true, true

	// Drive both through identical ops and compare all observations.
	r = rng.New(5)
	for i := 0; i < 3000; i++ {
		at := graph.NodeID(r.Intn(nodes))
		owner := graph.NodeID(r.Intn(nodes))
		wid := int64(r.Intn(9))
		key := gmwKey{batch: int64(r.Intn(3)), step: int32(r.Intn(4)), nbr: owner}
		switch r.Intn(6) {
		case 0:
			a, b := warm.newWalkID(at), fresh.newWalkID(at)
			if a != b {
				t.Fatalf("newWalkID(%d): warm %d, fresh %d", at, a, b)
			}
			c := coupon{owner: owner, walkID: a}
			warm.addCoupon(at, c)
			fresh.addCoupon(at, c)
		case 1:
			warm.recordHop(at, wid, owner)
			fresh.recordHop(at, wid, owner)
		case 2:
			warm.recordGMWSend(at, key, 2)
			fresh.recordGMWSend(at, key, 2)
		case 3:
			if a, b := warm.gmwAvailable(at, key), fresh.gmwAvailable(at, key); a != b {
				t.Fatalf("gmwAvailable: warm %d, fresh %d", a, b)
			}
		case 4:
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
		case 5:
			warm.beginReplay()
			fresh.beginReplay()
			a, aok := warm.replayNext(at, wid)
			b, bok := fresh.replayNext(at, wid)
			if a != b || aok != bok {
				t.Fatalf("replayNext: warm (%d, %v), fresh (%d, %v)", a, aok, b, bok)
			}
		}
	}
}
