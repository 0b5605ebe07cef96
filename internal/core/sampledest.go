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
// literal behaviour). The sweeps come in two parts. The announce part:
//
//  1. request: v tells the root it needs a sample (depth(v) rounds),
//  2. announce: the root broadcasts "sampling for owner v" (height rounds).
//
// The sample part:
//
//  3. sample:  convergecast in which each node offers a uniform local pick
//     of its coupons for v with its count, and every inner node keeps a
//     child's candidate with probability proportional to its count —
//     exactly the weighted tree sampling of Algorithm 3, which is uniform
//     over all coupons (Lemma A.2 / Lemma 2.4),
//  4. result: the root broadcasts the chosen coupon; its holder deletes it
//     (Sweep 3 of Algorithm 3) and the new connector learns it holds the
//     walk token.
//
// The result names the coupon's holder, which is the walk's next
// connector, and its follow bit says whether another stitch follows. So
// every node already knows the next owner, and a walk runs the announce
// part only for its first stitch and after a GET-MORE-WALKS refill (the
// refilled connector asks again once its new coupons are stored); every
// other stitch is sweeps 3 and 4 alone. MANY-RANDOM-WALKS goes further:
// one pipelined upcast carries every walk's request, and each walk's last
// result broadcast carries the next walk's announcement as a second item
// (one more round, not a fresh sweep). Under Params.PerCallBFS every call
// builds its own tree, so every call runs all four sweeps.

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
}

func (c sampleCand) msg() congest.Message {
	return congest.MakeMessage(graph.None, graph.None, kindSampleCand, 3,
		[congest.PayloadWords]uint64{uint64(c.count), uint64(c.walkID), congest.Pack2(int32(c.dest), c.length)})
}

func readSampleCand(m *congest.Message) sampleCand {
	dest, length := congest.Unpack2(m.W[2])
	return sampleCand{
		count:  int64(m.W[0]),
		walkID: int64(m.W[1]),
		dest:   graph.NodeID(dest),
		length: length,
	}
}

// sampleResult is flooded down the tree (sweep 4). found=false means the
// owner has no unused coupons left and must call GET-MORE-WALKS. follow
// means the next stitch samples for dest at once: the broadcast is its
// announcement.
type sampleResult struct {
	owner  graph.NodeID
	walkID int64
	dest   graph.NodeID
	length int32
	found  bool
	follow bool
}

func (r sampleResult) msg() congest.Message {
	w2 := uint64(uint32(r.length))
	if r.follow {
		w2 |= 1 << 61
	}
	if r.found {
		w2 |= 1 << 62
	}
	return congest.MakeMessage(graph.None, graph.None, kindSampleResult, 3, [congest.PayloadWords]uint64{
		uint64(r.walkID), congest.Pack2(int32(r.owner), int32(r.dest)), w2,
	})
}

func readSampleResult(m *congest.Message) sampleResult {
	owner, dest := congest.Unpack2(m.W[1])
	return sampleResult{
		walkID: int64(m.W[0]),
		owner:  graph.NodeID(owner),
		dest:   graph.NodeID(dest),
		length: int32(uint32(m.W[2])),
		found:  m.W[2]>>62&1 != 0,
		follow: m.W[2]>>61&1 != 0,
	}
}

// announce runs the announce part for connector v and returns the tree
// the sample part runs on: under PerCallBFS a fresh BFS tree rooted at v,
// which makes the request empty, and otherwise the walker's tree.
func (w *Walker) announce(v graph.NodeID) (*congest.Tree, congest.Result, error) {
	var cost congest.Result
	tree := w.tree
	if w.prm.PerCallBFS {
		// Algorithm 3 sweep 1: fresh BFS tree rooted at the connector.
		t, res, err := congest.BuildBFSTree(w.net, v)
		cost.Add(res)
		if err != nil {
			return nil, cost, fmt.Errorf("sample-destination: %w", err)
		}
		tree = t
	}
	res, err := w.requestAll(tree, []graph.NodeID{v})
	cost.Add(res)
	return tree, cost, err
}

// sample runs the sample part for connector v over tree and returns the
// sampled coupon (if any) plus the exact round cost. A coupon no longer
// than slack leaves another stitch to do, so the result sets follow
// (never under PerCallBFS, whose next call announces on its own tree).
// When none follows and next is a node, the result broadcast carries
// next's announcement as a second item.
func (w *Walker) sample(tree *congest.Tree, v graph.NodeID, slack int, next graph.NodeID) (sampleResult, congest.Result, error) {
	var cost congest.Result
	// Sample sweep: weighted reservoir over the tree (offerCoupon,
	// keepCandidate).
	w.sampleFor, w.sampleKey = v, stitchKey(w.net.SeedMix(), w.stitches)
	w.stitches++
	picked, res, err := congest.Convergecast(w.net, tree, w.offer, w.keep)
	cost.Add(res)
	if err != nil {
		return sampleResult{}, cost, fmt.Errorf("sample-destination convergecast: %w", err)
	}
	pick := readSampleCand(&picked)

	found := pick.count > 0
	follow := found && !w.prm.PerCallBFS && int(pick.length) <= slack
	out := sampleResult{
		owner:  v,
		walkID: pick.walkID,
		dest:   pick.dest,
		length: pick.length,
		found:  found,
		follow: follow,
	}
	// Result sweep: the coupon holder deletes it; v (and the new connector)
	// learn the outcome.
	items, n := [2]congest.Message{out.msg()}, 1
	if found && !follow && !w.prm.PerCallBFS && next != graph.None {
		items[1], n = ownerMsg(kindSampleAnnounce, next), 2
	}
	res, err = congest.Broadcast(w.net, tree, items[:n], w.take)
	cost.Add(res)
	if err != nil {
		return sampleResult{}, cost, fmt.Errorf("sample-destination result: %w", err)
	}
	return out, cost, nil
}

// offerCoupon is node u's start of the sample sweep: a uniform pick of
// its coupons for the connector, with their count, drawn from the stitch's
// key and u. Each node counts and picks by scanning its own list,
// O(Σ coupons) = O(2mη) local work per stitch — against Phase 1's
// O(2mηλ) messages.
func (w *Walker) offerCoupon(u graph.NodeID) congest.Message {
	v := w.sampleFor
	n := w.st.couponCount(u, v)
	if n == 0 {
		return sampleCand{}.msg()
	}
	c := w.st.couponAt(u, v, int(bounded(fold(w.sampleKey, uint64(uint32(u))), uint64(n))))
	return sampleCand{
		count:  int64(n),
		walkID: c.walkID,
		dest:   u,
		length: c.length,
	}.msg()
}

// keepCandidate folds a child's candidate into node u's, keeping the
// child's with probability proportional to its count. The draw is keyed
// by the stitch, u and the child's candidate walk, which no other child
// of u offers.
func (w *Walker) keepCandidate(u graph.NodeID, acc, child *congest.Message) {
	keep, c := readSampleCand(acc), readSampleCand(child)
	if c.count == 0 {
		return // an empty child changes nothing
	}
	total := keep.count + c.count
	x := fold(fold(w.sampleKey, uint64(uint32(u))), uint64(c.walkID))
	if int64(bounded(x, uint64(total))) < c.count {
		keep = c
	}
	keep.count = total
	*acc = keep.msg()
}

// takeResult is node u's part of the result sweep: the coupon's holder
// deletes it, and its owner counts one walk of its own fewer.
func (w *Walker) takeResult(u graph.NodeID, m *congest.Message) {
	if m.Kind != kindSampleResult {
		return
	}
	r := readSampleResult(m)
	if !r.found {
		return
	}
	if u == r.dest {
		w.st.takeCoupon(u, r.owner, r.walkID)
	}
	if u == r.owner {
		w.st.owned[u]--
	}
}
