// Package cache design notes.
//
// # Why a result cache is correct here at all
//
// The service's per-key determinism contract (established when the
// Service API replaced the single-walker surface, and preserved
// bit-for-bit by sharded and cluster execution) makes every request a
// pure function of (graph generation, service seed, request key,
// parameterization, budgets). A cache over pure functions is not an
// approximation: a hit IS the result, byte for byte, including the
// simulated cost counters. The golden tests in the root package pin
// exactly that — a cache-hit WalkResult/ManyResult/Trace deep-equals a
// fresh execution.
//
// # Key digest layout
//
// A cache key is an FNV-1a 128 digest over the fixed-width,
// fixed-order encoding of every result-determining input:
//
//	generation | kind | request key |
//	Params{LambdaC, Lambda, Eta, Theory, FixedLength, UniformCounts,
//	       PerCallBFS, Metropolis} |
//	maxRounds | retries |
//	kind-specific operands (source/ℓ, the sources list, root + RST
//	options, x + mixing options)
//
// Every field is folded as a full 64-bit word (floats by IEEE bits,
// bools as 0/1), so the stream is self-aligning: no two distinct field
// sequences share an encoding. Fields that cannot change a result —
// worker count, shard count, cluster transport, batching windows — are
// deliberately absent: a sharded, clustered, or retried
// service shares cache entries with a sequential one because their
// results are bit-identical by construction. `retries` IS folded: under
// an injected fault plan, which attempt succeeds (and therefore which
// attempt-salted seed produced the result) depends on the retry budget.
//
// The service seed and the fault plan are construction-time constants of
// one Service — a cache lives and dies with its Service, so they need no
// digest bits.
//
// The digest is computed inline: Digest holds the FNV-1a 128 state in two
// uint64 words and folds each byte with one 64×64→128 multiply, so
// building a key allocates nothing (no hash.Hash, no per-field byte
// slice, no Sum buffer). Its Key is byte-for-byte what hash/fnv's New128a
// returns over the same little-endian words — FuzzDigestMatchesFNV128a
// holds that, so every Key is the one the hash.Hash version produced.
//
// # Generation invalidation, not TTL
//
// Entries never expire: they are immutable facts about a frozen
// topology. A new graph generation invalidates them. Service.ApplyMutations
// publishes one with every accepted edge-edit batch: it bumps the
// generation folded into every digest and purges the store.
// Old-generation entries become unreachable instantly (their digests can
// no longer be produced), and requests already in flight complete
// epoch-pinned under the generation they digested — a leader finishing
// after a purge may briefly re-admit an old-generation entry, which no
// live digest can reach and which ages out through the LRU.
//
// # Singleflight leader rules
//
// A lookup that finds neither an entry nor a flight registers a flight
// and becomes the leader; it MUST Finish. Lookups that find the flight
// attach as waiters (CoalescedWaiters) and block until the leader
// publishes — N concurrent identical requests cost one execution.
// Async Submit handles on an unbatched service go through Do like every
// synchronous entry point: same digests, same flights. Only a batched
// service's submissions use Attach + Wait — they may join, never lead.
//
// On success the leader publishes the frozen value to every waiter and
// the store. On failure, waiters do NOT inherit the leader's error: the
// error may be private to the leader (its own cancelled context, its own
// exhausted retry budget), so each waiter re-resolves and exactly one of
// them leads a fresh attempt. A waiter whose own context expires while
// waiting fails with its own context error, leaving the leader
// undisturbed.
//
// # Frozen entries + copy-on-return
//
// Results are returned to callers by pointer throughout the public API,
// and results are mutable (slices of segments, positions, destinations).
// Storing the pointer a caller holds would let that caller corrupt every
// future hit. The decision: the executed result becomes a frozen master
// owned by the cache layer, and every return through the cached path —
// hit, miss, and coalesced alike — is a deep copy. Uniformity is the
// point: the leader's own return is a copy too, because its master may
// have been admitted or shared with waiters, and distinguishing "sole
// owner" cases buys microseconds against a multi-millisecond execution
// while making the invariant unverifiable. The -race stress suite runs
// concurrent hit/miss/coalesce traffic with mutating callers to prove
// returned results never alias the store.
//
// Past the caller's own request state, a hit allocates its copy and
// nothing else, and the copy makes one allocation per slice field, not
// one per element: a ManyResult's k walks are copied into one
// []WalkResult and all their segments into one []Segment, each walk
// holding a capped sub-slice (segs[lo:hi:hi]) of it, so an append to one
// walk's Segments reallocates instead of overwriting its sibling's.
// TestCacheHitAllocs gates the count per kind, equal at k = 8 and k = 32.
//
// # Admission
//
// The store only ever sees successful, per-key-deterministic results:
// failures are never offered, and batched compositions (deterministic
// per batch, not per key) and results that outlived their topology
// epoch are offered with NoStore so waiters still share them. On top of that, a
// per-entry size cap (MaxEntryBytes, clamped to the shard capacity)
// bounds what one entry may occupy. Capacity is byte-accounted (deep
// payload estimate plus a fixed per-entry overhead) and enforced per
// shard by LRU eviction.
package cache
