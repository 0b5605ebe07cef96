// Package fault — design notes.
//
// # Why plans, not callbacks
//
// The engine's determinism contract says a run is a pure function of
// (graph, seed, protocol). Fault injection must not weaken that: the
// whole point of reproducing a failure is replaying it. So faults are
// declared up front as a Plan — data, not code — and every random
// decision the plan requires is derived from the plan's own seed,
// independent of the network seed and of every protocol draw.
// Installing a plan perturbs exactly the deliveries it scripts; it never
// changes a protocol draw's key, so a fault-free plan (or no plan) is
// bit-identical to the unfaulted engine.
//
// # The plan-determinism argument
//
// Deterministic faults under sharded execution are the subtle part. The
// engine's sharded mode delivers each round in per-shard parallel: shard
// workers drain their own contiguous directed-edge ranges concurrently,
// and cross-shard messages merge in ascending source-shard order at the
// round barrier (see internal/congest/doc.go). A naive shared fault RNG
// consumed at delivery time would be racy AND schedule-dependent — two
// shards interleave arbitrarily, so draw order would differ run to run.
//
// Instead, every lossy-link decision is a stateless hash (Roll) of
//
//	(plan key, directed edge index, per-edge delivery ordinal)
//
// The per-edge ordinal is maintained by whichever engine owns the edge:
// sequentially that is the single engine loop, sharded it is the one
// shard whose contiguous range contains the edge — an edge is never
// shared, so the counter needs no synchronization. Both engines drain
// any given edge's queue in the same order (FIFO per edge, ascending
// edge order per round), so the ordinal sequence observed by edge e is
// identical in both modes, and therefore so is every drop decision and
// every FaultStats counter, at any shard count. Crash and churn
// decisions are round-indexed lookups with no randomness at delivery
// time, so they are trivially schedule-independent; delays are per-edge
// release-round state owned by the edge's shard, same argument as the
// ordinals.
//
// The first-loss record (which the protocol layer turns into typed
// ErrNodeCrashed/ErrMessageLost errors) is merged across shards by
// minimizing (round, edge index) — exactly the sequential engine's
// first-in-drain-order loss, because the sequential drain visits edges
// in ascending index order within a round.
//
// # Delay semantics
//
// A LinkDelay models a slow link, not a reordering one: messages on a
// delayed edge stay FIFO. An edge with delay d delivers a message no
// earlier than d rounds after the model's next-round delivery, and while
// backed up serializes to one delivery burst per 1+d rounds — a slow
// link is also a narrow one. Skipped delivery opportunities are counted
// in FaultStats.Delayed, and the round loop stays live (the edge remains
// scheduled), so delays can never deadlock a run: the release round is
// always reached.
package fault
