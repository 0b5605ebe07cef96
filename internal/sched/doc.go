// Package sched is the batching scheduler that sits between the public
// distwalk.Service and its worker pool: it coalesces concurrent
// single-walk-shaped requests into shared MANY-RANDOM-WALKS executions,
// so that k requests in flight together cost Õ(min(√(kℓD)+k, k+ℓ))
// simulated rounds between them (Theorem 2.8) instead of k independent
// Õ(√(ℓD)) runs — the paper's amortization, applied across requests
// instead of within one.
//
// # Admission and grouping
//
// Submit places a request in the admission queue of its group. Two
// requests share a group exactly when a single MANY-RANDOM-WALKS run can
// serve both: same walk parameterization (η, λ/LambdaC, Theory,
// Metropolis, ...; the full core.Params), same round budget, same walk
// length ℓ, and same topology epoch (Request.Topo), so no batch mixes
// graph generations. Sources may differ freely within a group: they
// become the batch's source list. A batch only samples endpoints; it
// never regenerates. A walk lost to an injected
// fault fails the batch whole: every member receives ErrBatchAborted
// wrapping the typed fault.
//
// # Flush policy
//
// A group flushes — its queued members are cut into a batch and handed to
// the executor — when either trigger fires:
//
//   - size: the queue reaches MaxBatch members (flushed immediately from
//     the submitting goroutine's Submit call);
//   - delay: MaxDelay has elapsed since the group's oldest member was
//     admitted (flushed from a timer).
//
// At most MaxInFlight batches execute concurrently (default: the worker
// pool size); further flushable groups wait, and members that overflow a
// size-triggered cut stay queued with their delay considered expired, so
// they flush as soon as an execution slot frees. Close aborts all queued
// members with ErrBatchAborted.
//
// # Determinism contract
//
// A batched execution is a pure function of (graph, service seed, batch
// composition): members are ordered by request key (ties by source, then
// admission order), the batch seed is derived by folding the sorted member
// keys into the service seed (BatchSeed), and the batch runs as one
// MANY-RANDOM-WALKS call on a network reseeded with that seed. Two batches
// with the same member set therefore produce bit-identical walks and
// costs, no matter how the members arrived, which worker ran the
// batch, or what ran before it. Which members end up in one batch does
// depend on arrival timing — that is inherent to coalescing and is the
// only nondeterminism batching introduces. One caveat: request keys are
// identifiers, and the contract assumes they are distinct within a
// batch. Members sharing both key and source fall back to admission
// order for the final tie-break, so which duplicate receives which of
// the (identically distributed) walks can vary between runs even though
// the batch's seed, member multiset and total cost do not. The per-key deterministic path
// (result a function of (graph, seed, key) alone) remains the default for
// every unbatched call, including SubmitWalk on a service without
// WithBatching.
//
// Cancellation composes with this contract: a member whose context is
// cancelled while pending is dropped — and completed with its context
// error — before the batch's composition and seed are fixed, so the batch
// executes exactly as if the cancelled member had never been submitted,
// and the surviving members' results are unperturbed. After flush, the
// shared execution runs to completion regardless of individual members'
// contexts (one member must not be able to abort its batchmates); a
// member cancelled post-flush still receives its computed result.
//
// # Backpressure
//
// Each group's admission queue holds at most 4*MaxBatch members. When
// executions cannot keep up — all MaxInFlight slots busy and the queue at
// its limit — Submit fails fast with ErrQueueFull instead of queueing
// unboundedly; callers shed load or retry. Rejections are counted in
// Stats.
//
// # Metrics
//
// Stats exposes the scheduler's counters: admissions, rejections,
// cancellations, aborts, flush reasons, a batch-occupancy histogram
// (Occupancy[i] = batches of size i+1), and the summed simulated cost of
// all batched executions, from which AmortizedRounds/AmortizedMessages
// report the per-walk amortized cost that batching is buying.
package sched
