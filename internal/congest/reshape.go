package congest

// Topology reshaping for pooled, warm networks. A Service keeps one
// Network per worker and reuses its slabs across requests; when the
// graph mutates, throwing those networks away would pay the full
// NewNetwork cost per worker per mutation. Reshape instead rebuilds
// only the topology-derived state — the directed-edge index, the
// queues, the compiled fault plan and (when sharded) the partition —
// against the new graph, keeping the per-node slabs whose sizes depend
// only on n.
//
// Generation-stamped warm state: every network carries a topology
// generation (Generation/SetGeneration). The owner stamps it after each
// (re)shape, and a pooled worker compares the stamp against the current
// epoch when it prepares a request: a mismatch means the warm state
// describes a dead topology and must be reshaped before the run. The
// stamp is the network's only memory of "which epoch am I warm for" —
// the engine itself never consults it, so stamping is free on the hot
// path.

import (
	"fmt"

	"distwalk/internal/graph"
)

// ReshapeKind reports how much a Reshape had to rebuild.
type ReshapeKind int

const (
	// ReshapeNone: the new graph is the one already installed; nothing
	// was rebuilt (a pure generation bump, e.g. cache invalidation).
	ReshapeNone ReshapeKind = iota
	// ReshapeIncremental: the directed-edge index was rebuilt but the
	// existing shard partition's node bounds were kept — the mutation
	// left the per-shard edge balance within tolerance.
	ReshapeIncremental
	// ReshapeFull: the index was rebuilt and the shard partition was
	// re-planned from scratch (or the network is unsharded).
	ReshapeFull
)

// String returns the kind's name for stats and logs.
func (k ReshapeKind) String() string {
	switch k {
	case ReshapeNone:
		return "none"
	case ReshapeIncremental:
		return "incremental"
	default:
		return "full"
	}
}

// reshapeSlackNum/Den: an existing shard partition is kept after a
// mutation while its most loaded shard holds at most 5/4 (25% slack) of
// the ideal per-shard edge share — the same degree-balance measure
// planShards optimizes and ShardStats.Occupancy reports at run time.
// Beyond that the partition is re-planned (ReshapeFull).
const (
	reshapeSlackNum = 5
	reshapeSlackDen = 4
)

// Generation returns the topology generation this network was last
// stamped with (see SetGeneration).
func (n *Network) Generation() uint64 { return n.topoGen }

// SetGeneration stamps the network with a topology generation. The
// engine never reads the stamp; it exists so a pool owner can detect a
// warm network that predates the current epoch. Not safe to call
// concurrently with Run.
func (n *Network) SetGeneration(gen uint64) { n.topoGen = gen }

// Reshape points the network at a new topology, rebuilding the
// directed-edge index, the message queues, the compiled fault plan and
// — when sharded — the partition (bounds kept when the edge balance
// still holds, re-planned otherwise; see ReshapeKind). The node count
// must not change, and cluster-connected networks or ones with per-edge
// capacities (WithEdgeCapFunc) cannot be reshaped. Passing the graph
// already installed is a no-op (ReshapeNone).
//
// Reshape leaves the per-node RNG streams untouched: like SetShards it
// must be followed by Reseed before the next deterministic run (the
// service layer's prepare always reseeds).
//
// On a fault-plan recompile failure (the installed plan references an
// edge the new topology no longer has) the plan is left cleared and the
// error is returned; callers that validate plans against the new graph
// before mutating never hit this.
func (n *Network) Reshape(g2 *graph.G) (ReshapeKind, error) {
	switch {
	case g2 == nil:
		return ReshapeNone, fmt.Errorf("congest: Reshape with nil graph")
	case g2 == n.g:
		return ReshapeNone, nil
	case len(n.remote) > 0:
		return ReshapeNone, fmt.Errorf("congest: Reshape on a cluster-connected network")
	case n.capOf != nil:
		return ReshapeNone, fmt.Errorf("congest: Reshape with per-edge capacities installed")
	case g2.N() != n.g.N():
		return ReshapeNone, fmt.Errorf("congest: Reshape changes node count %d -> %d", n.g.N(), g2.N())
	}
	oldBounds := n.shardBounds()
	s := len(oldBounds) - 1
	n.reset()
	n.g = g2
	n.buildIndex()
	kind := ReshapeFull
	if s > 1 && boundsBalanced(n.off, oldBounds) {
		n.applyShardBounds(oldBounds)
		kind = ReshapeIncremental
	} else {
		n.applyShardBounds(planShards(n.off, n.g.N(), s))
	}
	if plan := n.FaultPlan(); plan != nil {
		n.flt = nil
		if err := n.SetFaultPlan(plan); err != nil {
			return ReshapeFull, fmt.Errorf("congest: fault plan invalid after reshape: %w", err)
		}
	}
	return kind, nil
}

// boundsBalanced reports whether the old node bounds still split the
// new edge prefix within the reshape slack: max per-shard edge count
// ≤ (slack)·total/S.
func boundsBalanced(off []int32, bounds []int32) bool {
	s := len(bounds) - 1
	total := int64(off[bounds[s]])
	if total == 0 {
		return true
	}
	var maxLoad int64
	for i := 0; i < s; i++ {
		if load := int64(off[bounds[i+1]] - off[bounds[i]]); load > maxLoad {
			maxLoad = load
		}
	}
	return maxLoad*reshapeSlackDen*int64(s) <= total*reshapeSlackNum
}
