package core

import (
	"testing"

	"distwalk/internal/graph"
	"distwalk/internal/rng"
)

// Property tests pinning the flat slab-backed coupon store to the
// map-based reference semantics it replaced. The protocols' determinism
// (and the golden counter tests) depend on its behavioural contract: an
// owner's coupons keep exact append order, and take is the same
// swap-remove the old map store used, within that owner's coupons.
//
// Each test drives the flat store and a plain map model through the same
// randomized op sequence and demands identical observations throughout.

// localCoupons materialises node at's unused coupons owned by owner, in
// the order the protocols see them: owner's subsequence of at's list.
func (s *netState) localCoupons(at, owner graph.NodeID) []coupon {
	var out []coupon
	for _, c := range s.coupons[at].list {
		if c.owner == owner {
			out = append(out, c)
		}
	}
	return out
}

// clearCoupons empties every node's coupon list, keeping its capacity.
func (s *netState) clearCoupons() {
	for v := range s.coupons {
		s.coupons[v].clear()
	}
}

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
			c := coupon{owner: owner, walkID: nextID, length: int32(r.Intn(64))}
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

// TestNetStateResetMatchesFresh pins the warm-reuse contract at the store
// level: after arbitrary use plus reset, every observation matches a
// freshly built netState driven through the same subsequent ops.
func TestNetStateResetMatchesFresh(t *testing.T) {
	const nodes = 5
	warm := newNetState(nodes)
	// Dirty the warm state thoroughly.
	r := rng.New(4)
	for i := 0; i < 3000; i++ {
		at := graph.NodeID(r.Intn(nodes))
		warm.addCoupon(at, coupon{owner: graph.NodeID(r.Intn(nodes)), walkID: int64(i)})
		warm.newWalkID(at)
	}
	warm.reset()
	fresh := newNetState(nodes)

	// Drive both through identical ops and compare all observations.
	r = rng.New(5)
	for i := 0; i < 3000; i++ {
		at := graph.NodeID(r.Intn(nodes))
		owner := graph.NodeID(r.Intn(nodes))
		switch r.Intn(2) {
		case 0:
			a, b := warm.newWalkID(at), fresh.newWalkID(at)
			if a != b {
				t.Fatalf("newWalkID(%d): warm %d, fresh %d", at, a, b)
			}
			c := coupon{owner: owner, walkID: a}
			warm.addCoupon(at, c)
			fresh.addCoupon(at, c)
		case 1:
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
		}
	}
}

// TestCouponMemoryFollowsPhase1: the coupon shelves are sized by what
// Phase 1 starts, not by what each node once held. On one warm walker
// serving requests from distinct sources the coupon slab is carved once,
// to at most 2·couponSlack times the Phase 1 starts; its capacity after
// the first request is its capacity after the last, and a warm request
// reallocates few lists. The cases cover the default parameters, the
// uniform counts and large η of DNP09Params on a dense graph, and the
// Metropolis walk, whose uniform target piles coupons on the low-degree
// path of a barbell.
func TestCouponMemoryFollowsPhase1(t *testing.T) {
	requests := 12
	if testing.Short() || raceEnabled {
		requests = 4
	}
	metropolis := DefaultParams()
	metropolis.Metropolis = true
	torus, err := graph.Torus(48, 48)
	if err != nil {
		t.Fatal(err)
	}
	complete, err := graph.Complete(300)
	if err != nil {
		t.Fatal(err)
	}
	barbell, err := graph.Barbell(30, 60)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		g    *graph.G
		prm  Params
	}{
		{"torus48/default", torus, DefaultParams()},
		{"complete300/DNP09", complete, DNP09Params(1024, 1)},
		{"barbell30x60/metropolis", barbell, metropolis},
	} {
		t.Run(c.name, func(t *testing.T) {
			w, err := NewWalker(c.g, 1, c.prm)
			if err != nil {
				t.Fatal(err)
			}
			l := couponLayout{eta: c.prm.Eta, uniform: c.prm.UniformCounts, metropolis: c.prm.Metropolis}
			starts := 0
			for v := range c.g.N() {
				starts += l.starts(c.g, graph.NodeID(v))
			}
			backing := make([]*coupon, c.g.N())
			slab := 0
			for i := 1; i <= requests; i++ {
				if err := w.Reset(c.prm); err != nil {
					t.Fatal(err)
				}
				w.Network().Reseed(uint64(i))
				if _, err := w.SingleRandomWalk(graph.NodeID(i*57%c.g.N()), 1024); err != nil {
					t.Fatal(err)
				}
				if i == 1 {
					slab = cap(w.st.couponSlab)
					if slab > 2*couponSlack*starts {
						t.Fatalf("coupon slab holds %d coupons, want at most %d (2·couponSlack·%d Phase 1 starts)", slab, 2*couponSlack*starts, starts)
					}
				}
				if got := cap(w.st.couponSlab); got != slab {
					t.Fatalf("request %d: coupon slab holds %d coupons, %d after request 1", i, got, slab)
				}
				moved := 0
				for v := range w.st.coupons {
					list := w.st.coupons[v].list
					var p *coupon
					if cap(list) > 0 {
						p = &list[:1][0]
					}
					if p != backing[v] {
						moved++
					}
					backing[v] = p
				}
				if i > 1 && moved > c.g.N()/100 {
					t.Fatalf("request %d reallocated %d of %d coupon lists, want at most %d", i, moved, c.g.N(), c.g.N()/100)
				}
			}
		})
	}
}

// FuzzCouponShelf drives the flat coupon lists through add, take of a
// stored coupon and of an absent one, per-owner reads, couponTotal and the
// production clear (provisionCoupons, re-carving when the clear switches
// η), against the per-owner map model of TestCouponShelfMatchesReference.
// Each op is three bytes: kind, node, owner-or-pick. On the path graph the
// end nodes are carved room for η·couponSlack coupons, the inner ones for
// twice that, so a handful of adds overflows a list.
func FuzzCouponShelf(f *testing.F) {
	const (
		nodes  = 5
		owners = 4
	)
	const (
		opAdd = iota
		opTake
		opTakeAbsent
		opRead
		opClear
		numOps
	)
	// A take of a node's last coupon.
	f.Add([]byte{opAdd, 0, 1, opAdd, 0, 2, opTake, 0, 1, opRead, 0, 2, opRead, 0, 1})
	// A take of the owner's last coupon while another owner's coupons
	// follow it.
	f.Add([]byte{opAdd, 1, 1, opAdd, 1, 1, opAdd, 1, 2, opAdd, 1, 2, opTake, 1, 1, opRead, 1, 1, opRead, 1, 2})
	// A clear followed by adds past the carved capacity.
	f.Add([]byte{opAdd, 0, 0, opClear, 0, 0, opAdd, 0, 1, opAdd, 0, 2, opAdd, 0, 1, opAdd, 0, 3,
		opAdd, 0, 1, opAdd, 0, 2, opTake, 0, 4, opRead, 0, 1, opRead, 0, 2, opTakeAbsent, 0, 1})
	g, err := graph.Path(nodes)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		st := newNetState(nodes)
		st.provisionCoupons(g, DefaultParams())
		ref := make([]map[graph.NodeID][]coupon, nodes)
		type stored struct{ at, owner graph.NodeID }
		var minted []stored // by walkID-1
		check := func(at, owner graph.NodeID) {
			want := ref[at][owner]
			if n := st.couponCount(at, owner); n != len(want) {
				t.Fatalf("couponCount(%d, %d) = %d, want %d", at, owner, n, len(want))
			}
			for i, c := range want {
				if got := st.couponAt(at, owner, i); got != c {
					t.Fatalf("couponAt(%d, %d, %d) = %+v, want %+v", at, owner, i, got, c)
				}
			}
			total := 0
			for v := range ref {
				total += len(ref[v][owner])
			}
			if got := st.couponTotal(owner); got != total {
				t.Fatalf("couponTotal(%d) = %d, want %d", owner, got, total)
			}
		}
		take := func(at, owner graph.NodeID, id int64) {
			want := false
			list := ref[at][owner]
			for i, c := range list {
				if c.walkID == id {
					list[i] = list[len(list)-1]
					ref[at][owner] = list[:len(list)-1]
					want = true
					break
				}
			}
			if got := st.takeCoupon(at, owner, id); got != want {
				t.Fatalf("takeCoupon(%d, %d, %d) = %v, want %v", at, owner, id, got, want)
			}
		}
		for ; len(ops) >= 3; ops = ops[3:] {
			at, arg := graph.NodeID(ops[1]%nodes), int(ops[2])
			owner := graph.NodeID(arg % owners)
			switch ops[0] % numOps {
			case opAdd:
				c := coupon{owner: owner, walkID: int64(len(minted) + 1), length: int32(arg)}
				minted = append(minted, stored{at, owner})
				st.addCoupon(at, c)
				if ref[at] == nil {
					ref[at] = make(map[graph.NodeID][]coupon)
				}
				ref[at][owner] = append(ref[at][owner], c)
			case opTake: // a minted coupon where it was stored, if still there
				if len(minted) == 0 {
					continue
				}
				id := arg % len(minted)
				take(minted[id].at, minted[id].owner, int64(id+1))
			case opTakeAbsent: // a walk ID never minted, or one under another owner
				take(at, owner, int64(len(minted)+1+arg%2))
				if len(minted) > 0 {
					id := arg % len(minted)
					take(minted[id].at, (minted[id].owner+1)%owners, int64(id+1))
				}
			case opRead:
				check(at, owner)
			case opClear: // η = 1 or 2
				prm := DefaultParams()
				prm.Eta += arg % 2
				st.provisionCoupons(g, prm)
				clear(ref)
			}
		}
		for v := graph.NodeID(0); v < nodes; v++ {
			for o := graph.NodeID(0); o < owners; o++ {
				check(v, o)
			}
		}
	})
}
