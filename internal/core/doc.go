// Package core implements the distributed random-walk algorithms of
// "Efficient Distributed Random Walks with Applications" (Das Sarma,
// Nanongkai, Pandurangan, Tetali; PODC 2010) on a simulated CONGEST
// network:
//
//   - SINGLE-RANDOM-WALK (Algorithm 1): sample the endpoint of an ℓ-step
//     walk in Õ(√(ℓD)) rounds by preparing short walks of random length in
//     [λ, 2λ−1] (Phase 1) and stitching them at connector nodes (Phase 2).
//   - SAMPLE-DESTINATION (Algorithm 3): uniform sampling of an unused
//     short-walk coupon via BFS-tree convergecast in O(D) rounds.
//   - GET-MORE-WALKS (Algorithm 2): count-aggregated refill of a node's
//     short walks, with reservoir sampling giving each new walk an
//     independent uniform length without per-walk control messages.
//   - MANY-RANDOM-WALKS: k walks in Õ(min(√(kℓD)+k, k+ℓ)) rounds.
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
//     length. GET-MORE-WALKS segments, whose bundles carry counts rather
//     than token identities, are retraced backward through flow ledgers
//     recorded on every refill. A walk the replay cannot reproduce (another
//     seed or Reset epoch) fails with ErrNoRegen; so does any
//     Metropolis-Hastings walk. The result is the walk's path, one node
//     per position.
//   - The naive ℓ-round token walk and the PODC 2009 Õ(ℓ^{2/3}D^{1/3})
//     parameterization, as baselines.
//
// All algorithms run on internal/congest and report exact round/message
// costs. Correctness is Las Vegas: the sampled endpoint follows the true
// ℓ-step walk distribution regardless of parameter choices; parameters
// only affect the round complexity.
package core
