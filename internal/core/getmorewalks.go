package core

import (
	"distwalk/internal/congest"
	"distwalk/internal/graph"
)

// getMoreWalks runs GET-MORE-WALKS(v) (Algorithm 2): ⌊ℓ/λ⌋ new walks
// owned by v, at least one. It is a Phase 1 run in which v alone starts
// walks: each gets a fresh walk ID and draws its length (uniform on
// [λ, 2λ−1], Lemma 2.4; λ under FixedLength) and its hops from its keys,
// exactly as a Phase 1 walk does, so regeneration replays it forward like
// any other segment.
//
// Algorithm 2 sends one count-aggregated bundle per (edge, step); here
// every token is its own message. That adds at most ⌈(ℓ/λ)/deg(v)⌉ rounds
// of queueing on v's edges, and ℓ/λ ≤ λ whenever λ ≥ √ℓ, as the paper's
// λ is, so Lemma 2.2's O(λ) rounds hold.
func (w *Walker) getMoreWalks(v graph.NodeID, ell, lambda int) (congest.Result, error) {
	w.tok = tokenProto{w: w, lambda: int32(lambda), node: v, count: max(1, ell/lambda)}
	return w.net.Run(&w.tok)
}
