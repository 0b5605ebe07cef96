package core

import (
	"fmt"

	"distwalk/internal/congest"
	"distwalk/internal/graph"
)

// This file implements SAMPLE-DESTINATION (Algorithm 3): the connector v
// samples one of its unused short-walk coupons uniformly at random from
// wherever they are stored in the network, in O(D) rounds, and the chosen
// coupon is deleted so it is never re-stitched.
//
// Algorithm 3 rebuilds a BFS tree rooted at v per invocation; by default we
// reuse the tree rooted at the walk's source and add a request sweep from v
// to the root (same Θ(D) round cost; Params.PerCallBFS restores the
// literal behaviour). The sweeps are:
//
//  1. request: v tells the root it needs a sample (depth(v) rounds),
//  2. announce: the root broadcasts "sampling for owner v" (height rounds),
//  3. sample:  convergecast in which each node offers a uniform local pick
//     of its coupons for v with its count, and every inner node keeps a
//     child's candidate with probability proportional to its count —
//     exactly the weighted tree sampling of Algorithm 3, which is uniform
//     over all coupons (Lemma A.2 / Lemma 2.4),
//  4. result: the root broadcasts the chosen coupon; its holder deletes it
//     (Sweep 3 of Algorithm 3) and the new connector learns it holds the
//     walk token.

// ownerMsg is the request (sweep 1, connector to root) and the
// announcement (sweep 2, flooded down the tree): one word naming the
// connector whose coupons are sampled.
func ownerMsg(kind uint16, owner graph.NodeID) congest.Message {
	return congest.MakeMessage(graph.None, graph.None, kind, 1, [congest.PayloadWords]uint64{uint64(uint32(owner))})
}

// sampleCand is a weighted candidate in the convergecast (sweep 3).
type sampleCand struct {
	count  int64
	walkID int64
	dest   graph.NodeID
	length int32
	refill bool
	batch  int64
}

func (c sampleCand) msg() congest.Message {
	// length is a short-walk length (non-negative int32), so its top
	// packed bit is free to carry the refill flag.
	w3 := congest.Pack2(int32(c.dest), c.length)
	if c.refill {
		w3 |= 1 << 63
	}
	return congest.MakeMessage(graph.None, graph.None, kindSampleCand, 4,
		[congest.PayloadWords]uint64{uint64(c.count), uint64(c.walkID), uint64(c.batch), w3})
}

func readSampleCand(m *congest.Message) sampleCand {
	dest, length := congest.Unpack2(m.W[3] &^ (1 << 63))
	return sampleCand{
		count:  int64(m.W[0]),
		walkID: int64(m.W[1]),
		batch:  int64(m.W[2]),
		dest:   graph.NodeID(dest),
		length: length,
		refill: m.W[3]>>63 != 0,
	}
}

// sampleResult is flooded down the tree (sweep 4). found=false means the
// owner has no unused coupons left and must call GET-MORE-WALKS.
type sampleResult struct {
	owner  graph.NodeID
	walkID int64
	dest   graph.NodeID
	length int32
	found  bool
	refill bool
	batch  int64
}

func (r sampleResult) msg() congest.Message {
	w3 := uint64(uint32(r.length))
	if r.found {
		w3 |= 1 << 62
	}
	if r.refill {
		w3 |= 1 << 63
	}
	return congest.MakeMessage(graph.None, graph.None, kindSampleResult, 4, [congest.PayloadWords]uint64{
		uint64(r.walkID), uint64(r.batch), congest.Pack2(int32(r.owner), int32(r.dest)), w3,
	})
}

func readSampleResult(m *congest.Message) sampleResult {
	owner, dest := congest.Unpack2(m.W[2])
	return sampleResult{
		walkID: int64(m.W[0]),
		batch:  int64(m.W[1]),
		owner:  graph.NodeID(owner),
		dest:   graph.NodeID(dest),
		length: int32(uint32(m.W[3])),
		found:  m.W[3]>>62&1 != 0,
		refill: m.W[3]>>63 != 0,
	}
}

// sampleDestination runs the four sweeps for connector v and returns the
// sampled coupon (if any) plus the exact round cost.
func (w *Walker) sampleDestination(v graph.NodeID) (sampleResult, congest.Result, error) {
	var cost congest.Result

	tree := w.tree
	if w.prm.PerCallBFS {
		// Algorithm 3 sweep 1: fresh BFS tree rooted at the connector.
		t, res, err := congest.BuildBFSTree(w.net, v)
		cost.Add(res)
		if err != nil {
			return sampleResult{}, cost, fmt.Errorf("sample-destination: %w", err)
		}
		tree = t
	} else {
		// Request sweep: v -> root along parent pointers (depth(v) rounds).
		_, res, err := congest.Upcast(w.net, tree, func(u graph.NodeID) []congest.Message {
			if u == v {
				return []congest.Message{ownerMsg(kindSampleRequest, v)}
			}
			return nil
		})
		cost.Add(res)
		if err != nil {
			return sampleResult{}, cost, fmt.Errorf("sample-destination request: %w", err)
		}
	}

	// Announce sweep: every node learns whose coupons are being sampled.
	res, err := congest.Broadcast(w.net, tree, []congest.Message{ownerMsg(kindSampleAnnounce, v)}, nil)
	cost.Add(res)
	if err != nil {
		return sampleResult{}, cost, fmt.Errorf("sample-destination announce: %w", err)
	}

	// Sample sweep: weighted reservoir over the tree.
	picked, res, err := congest.Convergecast(w.net, tree,
		func(u graph.NodeID) congest.Message {
			local := w.st.localCoupons(u, v)
			if len(local) == 0 {
				return sampleCand{}.msg()
			}
			c := local[w.net.NodeRNG(u).Intn(len(local))]
			return sampleCand{
				count:  int64(len(local)),
				walkID: c.walkID,
				dest:   u,
				length: c.length,
				refill: c.refill,
				batch:  c.batch,
			}.msg()
		},
		func(u graph.NodeID, acc, child *congest.Message) {
			keep, c := readSampleCand(acc), readSampleCand(child)
			total := keep.count + c.count
			if total == 0 {
				return // both empty: acc already is the empty candidate
			}
			if int64(w.net.NodeRNG(u).Uint64n(uint64(total))) < c.count {
				keep = c
			}
			keep.count = total
			*acc = keep.msg()
		},
	)
	cost.Add(res)
	if err != nil {
		return sampleResult{}, cost, fmt.Errorf("sample-destination convergecast: %w", err)
	}
	pick := readSampleCand(&picked)

	out := sampleResult{
		owner:  v,
		walkID: pick.walkID,
		dest:   pick.dest,
		length: pick.length,
		found:  pick.count > 0,
		refill: pick.refill,
		batch:  pick.batch,
	}
	// Result sweep: the coupon holder deletes it; v (and the new connector)
	// learn the outcome.
	res, err = congest.Broadcast(w.net, tree, []congest.Message{out.msg()}, func(u graph.NodeID, m *congest.Message) {
		if r := readSampleResult(m); r.found && u == r.dest {
			w.st.takeCoupon(u, r.owner, r.walkID)
		}
	})
	cost.Add(res)
	if err != nil {
		return sampleResult{}, cost, fmt.Errorf("sample-destination result: %w", err)
	}
	return out, cost, nil
}
