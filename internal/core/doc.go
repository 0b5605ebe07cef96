// Package core implements the distributed random-walk algorithms of
// "Efficient Distributed Random Walks with Applications" (Das Sarma,
// Nanongkai, Pandurangan, Tetali; PODC 2010) on a simulated CONGEST
// network:
//
//   - SINGLE-RANDOM-WALK (Algorithm 1): sample the endpoint of an ℓ-step
//     walk in Õ(√(ℓD)) rounds by preparing short walks of random length in
//     [λ, 2λ−1] (Phase 1) and stitching them at connector nodes (Phase 2).
//   - SAMPLE-DESTINATION (Algorithm 3): uniform sampling of an unused
//     short-walk coupon via BFS-tree convergecast in O(D) rounds. The
//     tree is built once per source by congest.BuildBFSTree's flood, in
//     O(D) rounds and at most 2m messages: m + n − 1 on a bipartite
//     graph, since no node announces back to a neighbor it heard from.
//     On a short walk over a large graph the tree is most of the cost:
//     6 911 of the 6 977–6 995 messages of an ℓ = 64 naive walk on
//     Torus(48,48) (service seed 42, keys 1–3).
//   - GET-MORE-WALKS (Algorithm 2): refill of a node's short walks, run
//     as a Phase 1 in which that node alone starts ⌊ℓ/λ⌋ walks, each with
//     its own walk ID and keyed length and hops. This deviates from
//     Algorithm 2 in one respect: a token travels as its own message, not
//     in a count bundle per (edge, step), which adds at most
//     ⌈(ℓ/λ)/deg(v)⌉ rounds of first-hop queueing and keeps Lemma 2.2's
//     O(λ) while ℓ/λ ≤ λ.
//   - MANY-RANDOM-WALKS: k walks in Õ(min(√(kℓD)+k, k+ℓ)) rounds. It is
//     the one walk driver: SINGLE-RANDOM-WALK is its k = 1 case with
//     Theorem 2.5's λ = √(ℓD) in place of Theorem 2.8's, and the naive
//     walk its naive branch.
//   - One walk-token protocol (tokenProto): Phase 1's short walks,
//     GET-MORE-WALKS' refills, the naive walks and the stitched walks'
//     tails are the same 3-word token (walk ID, steps left, length) and
//     differ only in the tokens a run starts and in what a finished one
//     leaves, a coupon or its walk's destination. Regeneration keeps its
//     own 2-word position token: merging it into the walk token would
//     move the Words counter every golden pins.
//   - One short-walk inventory per Walker: unused walks persist between
//     calls, and a call whose λ is below twice the inventory's stitches
//     with the inventory's λ instead of re-running Phase 1; a top-up
//     pass replaces only the walks earlier stitches used, and only when a
//     source lacks the walks it starts (Walker.ensurePhase1). The
//     doubling phases of the spanning-tree application share it.
//   - Walk regeneration (Section 2.2): every node learns its position(s)
//     in the sampled walk, enabling the random-spanning-tree application.
//     A walk token's step j draws from a value keyed by (request seed,
//     walk ID, j) — a counter-based draw (Salmon et al., SC'11) — so each
//     node recomputes the hops it forwarded instead of storing them, and
//     the replay sends one message per hop, stopping at each segment's
//     length. Every segment replays forward in one pass, GET-MORE-WALKS
//     segments included, in time comparable to Phase 1's; a
//     Metropolis-Hastings stay replays at the node, with no message. A
//     walk the replay cannot reproduce (another seed or Reset epoch)
//     fails with ErrNoRegen. The result is the walk's path, one node per
//     position.
//   - The naive ℓ-round token walk and the PODC 2009 Õ(ℓ^{2/3}D^{1/3})
//     parameterization, as baselines.
//
// All algorithms run on internal/congest and report exact round/message
// costs. Correctness is Las Vegas: the sampled endpoint follows the true
// ℓ-step walk distribution regardless of parameter choices; parameters
// only affect the round complexity.
package core
