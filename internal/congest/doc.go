// Package congest simulates the CONGEST model of distributed computing used
// throughout the paper (Section 1.1): a synchronous network where, in each
// round, every node may send one O(log n)-bit message through each incident
// edge.
//
// The simulator is a deterministic discrete-event engine:
//
//   - Every undirected edge is two directed channels with a FIFO queue each.
//   - In each round, at most Cap messages (default 1) are delivered from
//     every directed queue; everything else waits. Congestion therefore
//     costs extra rounds exactly as in the paper's analysis (e.g. Lemma 2.1
//     charges Phase 1 O(λη log n) rounds because ~η log n tokens cross an
//     edge per walk step w.h.p.).
//   - Messages sent in round r are deliverable from round r+1 on.
//   - Nodes execute in increasing ID order within a round. A protocol
//     draws randomness as a pure function of the network seed (SeedMix)
//     and of what the draw decides, never from a stream, so a whole
//     execution is reproducible and any draw can be recomputed at any
//     node.
//
// Protocols implement Proto and are run to quiescence (no queued messages,
// no active nodes) or until an optional Halter says the goal is reached.
// Node state persists wherever the protocol keeps it; the engine itself
// keeps no protocol state between runs, only the seed its draws key on.
//
// # Engine design notes
//
// Every algorithm in this reproduction executes through this engine's
// round loop, so its constant factors gate the largest n and ℓ the
// simulation can reach. The hot loop is organized around three rules, all
// of which preserve the simulated Result counters bit for bit (the golden
// tests at the repo root and in internal/pathverify pin this):
//
// Scheduling is sort-free. The active directed edges and the nodes
// scheduled to step are hierarchical bitsets (sched): add is O(1), and
// draining visits members in ascending index order by construction —
// which IS the deterministic ID order the model prescribes — instead of
// sorting an append-built slice with a comparator closure every round.
// Summary levels make a drain of m members cost O(m + log n) regardless
// of how sparse the round is, so a quiet network (one token in flight)
// pays nothing for the idle edges.
//
// Messages are words, not boxed values. A Message carries a
// protocol-defined Kind tag, its size in O(log n)-bit units and up to
// PayloadWords uint64 words inline — the model's O(log n) bits in O(1)
// machine words — so queues are pointer-free slabs the garbage collector
// never scans. There is one send shape: the sender passes kind, size and
// the words as scalar arguments, addressed to a neighbor (Ctx.SendTo) or
// to a port (Ctx.SendPort), and the scalars travel in registers to the
// queue slot and are stored there 8 bytes at a time; both fronts end in
// edgeHalf.put. Each protocol owns plain functions for its messages: an
// encoder that returns the words (or, for the tree primitives' items, a
// Message built with MakeMessage) and a read… function that decodes them
// in place from the inbox slot the message arrived in.
//
// Queues are chains through one slab per edge half. A directed edge keeps
// a 12-byte header (queue: head, tail, size) and every message queued on
// any edge of a half lives in that half's slotPool — a []Message and a
// parallel []int32 of links, an intrusive FIFO chain per edge. put
// assembles the message in a slot, drain pops it in place. A popped slot
// goes on a free stack and is the next one handed out; a fresh slot is
// appended only when none is free. What is retained is therefore the
// largest number of messages the half ever held at once — the traffic —
// and not, as with one growable buffer per edge, the sum over all edges
// of the deepest queue each one ever saw: Phase 1 on Torus(48,48) queues
// 9 217 tokens and retains 10 922 slots (0.5 MiB) from the first request
// on, where per-edge buffers held about 64 500 after one request and
// 137 000 after eighty. Last-in first-out reuse keeps the slots in use
// the ones just touched, so the kernel's working set is the in-flight
// messages and stays inside the L2 cache. SendTo looks up the directed edge
// with a binary search in a flat sorted per-node neighbor index
// (nbrTo/nbrEdge) instead of a per-node map[NodeID][]int32; parallel
// edges sit contiguously in adjacency order, so the least-loaded
// tie-break picks the same edge the map index did.
//
// A send can also be addressed by port. The j-th half-edge of node u is
// directed edge off[u]+j, and a walk step draws exactly that j
// (graph.StepPort), so SendPort needs no search — whose two
// data-dependent branches mispredict on a random neighbor. The
// parallel-edge rule: a node joined to some neighbor by more than one
// edge has a choice to make, so its port only names the neighbor and the
// send takes the same lookup and least-loaded pick as SendTo; every other
// node's port IS the edge. Which nodes those are is one bit per node that
// buildIndex derives while it sorts (so every Reshape does), not a
// setting. Both fronts land the message through put, so queue depths,
// fault ordinals and counters cannot tell the two addressings apart
// (TestSendPortMatchesSend).
//
// Determinism argument: delivery iterates edges in ascending directed
// index (drain order = old sorted order); within an edge, FIFO; node
// steps run in ascending node ID; send validation, capacity clamping,
// crash handling and the Result counters are computed at the same points
// with the same values as the pre-rewrite engine. The engine itself
// consumes no randomness. Hence for a fixed seed the message trace, the
// RNG consumption and every Result field are identical to the original
// sort-and-box engine — verified by the golden counter tests.
//
// Allocation discipline: steady-state delivery is zero-alloc (engine
// micro-benchmarks hold at 1-2 allocs per whole run, from protocol state,
// vs 10^2-10^4 before). The growth paths — the slab's append, inbox and
// transfer-buffer append — are amortized and retain capacity: reset
// zeroes the headers of the edges still active and truncates the slab,
// O(active) and never a re-allocation, and a Reshape that keeps the shard
// count hands the slab and the transfer buffers to the rebuilt halves, so
// a mutation does not send a warm network back to growing memory.
//
// # Cancellation and pooling
//
// The round loop is context-aware: SetContext installs a context.Context
// that Run polls every ctxCheckMask+1 rounds (one pointer nil-check per
// round when no context is set, so the golden counters and the hot loop
// are unaffected). A run aborted by cancellation returns an error wrapping
// ctx.Err(), and the in-flight messages it leaves behind are dropped by
// the next Run's reset, so an aborted network is immediately reusable.
//
// Reseed installs a fresh seed as NewNetwork does, in O(1): it touches no
// per-node state. Together with the reset discipline this makes a Network
// poolable: the service layer (distwalk.Service) keeps one Network per
// worker and reseeds it with a request-key-derived seed before
// each request, which yields per-request determinism — the result of a
// request depends only on (graph, service seed, request key), never on
// which worker ran it or what ran on that worker before.
//
// # Tree-protocol scratch and the epoch-stamp trick
//
// The tree primitives used to allocate their per-node working arrays per
// call — Convergecast built two O(n) slices on every invocation, which in
// walk workloads means every SAMPLE-DESTINATION stitch. The Network now
// owns a single nodeScratch (stamp/acc/pending arrays sized once to n)
// that each tree-protocol run borrows via scratch(). "Clearing" it is one
// epoch increment: a slot is meaningful only while its stamp equals the
// current epoch, so stale state from the previous run is unreachable
// without ever sweeping the arrays (the rare uint32 wrap does one sweep).
// The tree primitives move Messages: Broadcast floods items, Upcast
// returns the collected items, and Convergecast keeps each node's
// aggregate in the scratch as a Message that merge updates in place and
// the node relays to its parent as is, so nothing is decoded or
// re-encoded between hops. Broadcast copies its items into the scratch
// too, which keeps a caller's one-item slice on the caller's stack. The
// BFS build marks visited nodes by stamping. One scratch suffices
// because the engine executes one Run at a time.
//
// The BFS flood sends no announce that cannot change the tree. A node
// visited in round r acks its parent and announces on each port whose
// neighbor did not announce to it in round r; those neighbors are
// visited already. Its inbox is sorted by sender, so a binary search per
// port finds them, with no per-node state. Every directed edge then
// carries at most one message, so a build sends at most 2m. Fault-free
// it sends m + n − 1 plus one per edge within a BFS layer: m + n − 1 on
// a bipartite graph such as a torus of even side (6 911 on
// Torus(48,48), against 2m = 9 216 when every node announces on every
// port but its parent's). An omitted announce would reach a visited
// node on an edge no other message of the build uses, so omitting it
// changes no tree, child order, queue depth or fault decision on
// another edge, and no round count unless its link is delayed: only
// there could it have been a build's last delivery.
//
// # One round kernel, three transports
//
// The code that charges a round exists once (kernel.go). A shard is a
// contiguous ascending node range, split into two halves:
//
//   - The edge half owns the directed edges leaving those nodes. put is
//     the only way a message enters one of its queues (slot, delay-start
//     write, activity mark), behind two fronts that pick the edge:
//     enqueue (neighbor lookup, least-loaded parallel-edge pick) and
//     enqueuePort (the port is the edge, or enqueue where the node has
//     parallel edges); drain is the only way one leaves: it visits the
//     half's active edges in ascending index order, applies the delay
//     gate, samples MaxQueue, clamps to the capacity, charges crash drops
//     and lossy-link rolls, and appends the survivors to one transfer
//     buffer per destination.
//   - The node half owns the nodes: mergeIn appends a transfer buffer to
//     their inboxes and schedules the receivers, wake schedules the nodes
//     that asked to stay awake, step runs the protocol on the scheduled
//     nodes in ascending ID order.
//
// A round is drain, move the buffers, mergeIn in ascending source order,
// wake, step; then one serial verdict (protocol error, Halter, quiescence,
// round budget, cancellation — in that order) either stops the run or
// opens the next round, and at the end one collect folds each edge half's
// counters and first loss into the Result. Run picks the driver from what
// it can observe, and the drivers differ only in how buffers move:
//
//   - One shard (the default): the caller's goroutine runs the round and
//     hands the single buffer from the edge half to the node half — no
//     barrier, no clock, no per-Run allocation.
//   - SetShards(S>1) / WithShards: S degree-balanced shards, one worker
//     goroutine each (shard.go). Every shard drains; a barrier; every
//     shard merges the buffers addressed to it and steps; a second
//     barrier, inside which the last arriver runs the verdict. The
//     barrier is spin-then-park: an early arriver polls its generation
//     (yielding every hundred polls) for up to a millisecond before it
//     parks on a mutex + cond, because a sleeping worker takes its OS
//     thread down and the wake-up costs more than the round. Waiters
//     spin only while the shard workers of all sharded Runs in flight
//     fit GOMAXPROCS; beyond that a spinner would hold the P its peer
//     needs, so they park at once. The workers are started per Run, but
//     the run's control state lives in the Network and each worker body
//     is bound once per shard, so starting them allocates nothing
//     (TestShardedRunAllocs).
//   - ConnectRemote: the edge halves run as ShardEngines in other
//     processes (engine.go, internal/wire, cmd/distwalkd) and the client
//     keeps one node half over all nodes (remote.go). A send is validated
//     here and shipped unresolved to the engine owning the sender; each
//     round the client writes every engine its sends and a request to
//     drain, then merges the returned buffers in engine order. The
//     verdict needs only whether any message is still queued, which the
//     client counts itself (pushed − delivered) when the fault plan loses
//     no message; a lossy plan makes it await the engines' acks, which
//     carry the queued-edge counts, before it asks for the drain.
//
// Determinism argument — why every transport computes the same
// execution. The only order-sensitive operation is inbox append order
// (protocols see Inbox() in delivery order, and RNG draws follow message
// handling). Shards own contiguous ascending edge ranges, in shard order;
// each edge half drains its own edges ascending; and every node half
// merges sources in ascending order. The concatenation (source ascending,
// edge ascending within source) IS the global ascending directed-edge
// order, so every inbox is byte-identical at any shard count and on any
// side of a process boundary. TCP may interleave frames from different
// engines arbitrarily; the merge order is fixed by engine index, not
// arrival time, so network timing is unobservable. Node steps within a
// half run in ascending ID order; steps in different halves interleave
// arbitrarily, which is unobservable because protocol state is per-node
// (each node's Step touches only its own slots of per-node stores, plus
// its own outgoing queues — the same locality the CONGEST model itself
// prescribes). Every queue and every fault decision is per-edge state
// owned by exactly one edge half, so charging happens at
// the sending side with the same values wherever the half runs:
// Messages/Words/Dropped are sums over halves, MaxQueue a max, the first
// loss the minimum (round, edge) — all order-free merges. The kernel
// consumes no randomness, and a protocol's draws are keyed, so no draw
// depends on the order nodes step in. Hence Result counters, walk
// outputs, fault census and LossError are invariant across one shard,
// WithShards(S) and an S-engine cluster — pinned by the shard-identity
// stress tests (engine-level, pathverify, and full-stack under -race) at
// S = 2, 4, 8, the wire-level run identity tests (internal/wire) and the
// full-stack cluster suite (cluster_test.go) against real distwalkd
// processes at S = 2, 4. The suites compare transports against each
// other; there is no separate reference loop.
//
// Errors. An invalid send (empty or over-wide payload, non-neighbor, a
// port the node does not have) is recorded by the erring node's half,
// which stops stepping its remaining nodes; the round finishes and the
// verdict reports the lowest half's error. Halves
// are ascending and each keeps its first, so on every transport the run
// fails with the lowest erring node's error, at the same round and with
// the same partial Result; remote engines still receive FinishRun, and
// after Reseed the network serves its next run exactly like a fresh one
// (TestShardedErrorAborts). What does differ is which of the nodes above
// the erring one got to run that round — state nobody may read after an
// abort. A remote transport failure, by contrast, abandons the session.
//
// One caveat: protocols whose nodes share mutable state would race under
// S > 1. The one shared scratch in this module's protocols (the
// GET-MORE-WALKS aggregation buffer) became per-node, and pathverify's
// first-verifier tie-break an atomic CAS-min, when sharding was
// introduced.
//
// Wall-clock: sharding costs two barrier crossings per round, cheap
// while the shard workers fit GOMAXPROCS and stay balanced (the waiters
// spin), so WithShards(2) on two CPUs runs the Phase-1 heavy walk
// requests in about half the sequential time from Torus(48,48) up and
// still ahead on Torus(16,16); with more shard workers than Ps every
// crossing is a park and a wake-up. A cluster pays one round trip per
// round, two under a fault plan that can lose messages. Each shard tallies its steps, merges and barrier wait — spin
// time included — and a Run adds them once, at its end, to the
// ShardCounters block the network was given (WithShardCounters); the
// network itself keeps no total. ShardStats, the block's snapshot, makes
// imbalance observable.
//
// # Warm-reuse lifecycle
//
// Pooling extends one layer above the engine. The protocol layer keeps
// its own per-node state (coupon shelves and walk-ID counters — see
// internal/core's slab-backed netState) in flat growable slabs whose
// clear operations truncate rather than free. A pooled worker's
// lifecycle per request is therefore:
//
//	Reshape(snapshot graph) -> nothing, unless the graph changed
//	Reseed(derivedSeed)     -> the seed every draw keys on, O(1)
//	Walker.Reset(params)    -> shelves truncate, the walker re-reads
//	                           the graph, tree slabs retire for recycling
//	serve request           -> the result and its per-call slabs:
//	                           2 allocations for a warm single walk,
//	                           5 for eight walks (core's
//	                           TestSingleWalkAllocs, TestManyWalksAllocs)
//
// Reset restores the exact observable state of a freshly built walker, so
// warm reuse is invisible to the cost model: the golden counter tests and
// the service determinism stress tests pin that a worker's Nth request is
// bit-identical to the same request on a zero-history worker.
//
// # Warm state follows the graph
//
// Warm reuse survives topology mutation because a network's warm state
// is identified by one thing, the *graph.G it holds. Graphs are
// immutable (a mutation builds a copy-on-write successor), and the
// service pins every request to a snapshot, so on checkout a pooled
// worker calls Reshape with its request's graph. When that is the graph
// already installed — the static case — Reshape returns at one pointer
// compare: mutation support is free for static graphs, which the
// unchanged goldens prove. Otherwise it rebuilds and reports changed.
//
// Reshape rebuilds exactly the structures that depend on the edge set
// — the directed-edge index (off/nbrTo/nbrEdge), the queue headers, the
// compiled fault plan — via the same buildIndex that NewNetwork uses,
// re-plans the shard partition with planShards (S−1 binary searches
// over the new prefix sums; every shard is rebuilt and adopts its
// predecessor's slab), and leaves everything sized-to-n alone (tree
// scratch, inboxes, awake flags).
//
// Reshape refuses what cannot be reshaped in place: a nil or
// node-count-changing graph, a network attached to remote cluster
// engines (the service detaches it and redials sessions built from the
// new graph's handshake instead), and per-edge capacity functions (capOf
// closures may capture the old graph). An installed fault plan is
// recompiled against the new topology; a plan naming a now-removed
// link fails the reshape with ErrBadFault — the service validates
// plan-vs-edit before publishing, so hitting this in a worker is the
// defensive backstop, not a control path. A refusal changes nothing:
// the new index and plan are built aside and swapped in only when both
// succeed, so the network keeps its graph and plan and a retry is
// refused again.
//
// Reshape must be followed by Reseed before serving: after
// Reshape(g2)+Reseed(s) the network is observably identical to
// NewNetwork(g2, s) — the same contract warm reuse already pinned,
// extended to the mutation axis.
//
// # Fault injection and charging order
//
// SetFaultPlan installs a deterministic fault plan (internal/fault):
// crash-stop faults and churn windows (round-indexed node-down lookups),
// lossy links (per-message drop decisions) and slow links (per-edge fixed
// delays). All fault state lives behind one nil-checked pointer, so a
// network without a plan pays one nil check per edge drained — the
// zero-cost contract the goldens pin.
//
// Charging order within a directed edge's delivery (edgeHalf.drain):
//
//  1. Delay gate. A slow link whose release round is in the future skips
//     the whole burst, charges Faults.Delayed once per skipped round, and
//     re-activates the edge. Delay is inspected before anything is popped,
//     so FIFO order and MaxQueue sampling are unaffected.
//  2. Crash check. A message to a node that is down this round (crash or
//     churn window) is dropped and charged Faults.Dropped. Crash precedes
//     the loss roll: a message to a dead receiver never consumes a drop
//     ordinal, so adding a crash to a plan cannot shift the lossy-link
//     decisions of unrelated edges.
//  3. Loss roll. A lossy edge's surviving messages consume per-edge
//     decision ordinals, hashed statelessly from (plan key, edge,
//     ordinal) — fault.Roll. Dropped ones charge Faults.LinkDropped.
//
// Determinism under sharding follows from the same argument as delivery
// order: each directed edge is owned by exactly one shard and drained
// FIFO in ascending edge order, so its ordinal sequence — and therefore
// every drop decision — is identical at any shard count; delays are
// per-edge release rounds owned by the edge's shard; node-down lookups
// are pure functions of (node, round). The first-loss record (LossError)
// is merged across shards by minimal (round, edge), which is exactly the
// first loss a single ascending drain encounters. Faults.Crashed is a
// post-run census (high-water, including recovered churn nodes) computed
// once in the Run wrapper, identically for every driver.
//
// The loss record persists across a request's multiple engine runs and is
// cleared by Reseed — request scope, matching the service's per-request
// determinism contract. Protocols do not observe faults directly; the Las
// Vegas drivers detect the inconsistency a loss causes and fail, and
// internal/core's faultize boundary re-labels that detection error with
// the typed ErrNodeCrashed/ErrMessageLost carrying the recorded loss.
package congest
