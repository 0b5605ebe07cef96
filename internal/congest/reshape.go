package congest

// Topology reshaping for pooled, warm networks. A Service keeps one
// Network per worker and reuses its slabs across requests; when the
// graph mutates, throwing those networks away would pay the full
// NewNetwork cost per worker per mutation. Reshape instead rebuilds
// only the topology-derived state — the directed-edge index, the
// queues, the compiled fault plan and the shard partition — against
// the new graph, keeping the per-node slabs whose sizes depend only on
// n. The graph a network holds is its only warm-state identity: a pool
// owner reshapes to the graph its request is pinned to, and Reshape does
// nothing when that is the graph already installed.

import (
	"fmt"

	"distwalk/internal/graph"
)

// Reshape points the network at a new topology, rebuilding the
// directed-edge index, the message queues, the compiled fault plan and
// the shard partition (re-planned with the shard count kept). The node
// count must not change, and cluster-connected networks or ones with
// per-edge capacities (WithEdgeCapFunc) cannot be reshaped. Passing the
// graph already installed does nothing and reports changed == false.
//
// Reshape is all-or-nothing: when it fails — the installed fault plan
// references an edge the new topology no longer has, say — the network
// keeps its graph, index and plan, and a retry fails the same way.
//
// Reshape keeps the seed and the first-loss record: like SetShards it
// must be followed by Reseed before the next deterministic run (the
// service layer's prepare always reseeds).
func (n *Network) Reshape(g2 *graph.G) (changed bool, err error) {
	switch {
	case g2 == nil:
		return false, fmt.Errorf("congest: Reshape with nil graph")
	case g2 == n.g:
		return false, nil
	case len(n.remote) > 0:
		return false, fmt.Errorf("congest: Reshape on a cluster-connected network")
	case n.capOf != nil:
		return false, fmt.Errorf("congest: Reshape with per-edge capacities installed")
	case g2.N() != n.g.N():
		return false, fmt.Errorf("congest: Reshape changes node count %d -> %d", n.g.N(), g2.N())
	}
	next := links{g: g2, cap: n.cap}
	next.buildIndex()
	if plan := n.FaultPlan(); plan != nil {
		if err := next.SetFaultPlan(plan); err != nil {
			return false, fmt.Errorf("congest: fault plan invalid after reshape: %w", err)
		}
	}
	n.reset()
	n.links = next
	n.applyShardBounds(planShards(n.off, g2.N(), len(n.shards)))
	return true, nil
}
