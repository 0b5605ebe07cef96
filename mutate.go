package distwalk

// Dynamic topology: batched edge mutation under live traffic.
//
// A Service's topology is versioned by a Generation. Every request
// captures the current generation's snapshot when it admits; a mutation
// (ApplyMutations) builds a copy-on-write successor graph, publishes it
// as generation+1, and retires the old epoch. What happens to requests
// in flight across the boundary is the caller's choice per request:
//
//   - Epoch pinning (the default): the request completes
//     against the immutable snapshot it admitted under — the result is
//     exactly what a never-mutated service would return. Pinned results
//     are not stored in the result cache (they would be stale on
//     arrival).
//
//   - Stale abort (WithStaleAbort): the request fails fast with a
//     *StaleGenerationError (errors.Is ErrStaleGeneration) carrying the
//     old and new generations. Queued batch members are evicted at
//     publish; in-flight executions cancel at the next engine round.
//     With WithRetry the failure re-admits transparently on the new
//     topology, bit-identical to a fresh post-mutation request (stale
//     retries do not consume attempt-seed salting).
//
// Determinism contract: for a fixed (graph, mutation sequence, seed,
// key), results are bit-identical regardless of shard count, worker
// pool size, or cluster vs in-process execution — the same identity
// argument the shard and cluster suites pin, extended to the mutation
// axis.

import (
	"context"
	"fmt"
	"strconv"

	"distwalk/internal/graph"
	"distwalk/internal/sched"
	"distwalk/internal/wire"
)

// Generation is a topology epoch ordinal. A service starts at
// generation 1; every ApplyMutations and InvalidateCache advances it by
// one. Generations are totally ordered and never reused.
type Generation uint64

// String formats the generation for logs and error messages.
func (g Generation) String() string { return strconv.FormatUint(uint64(g), 10) }

// EdgeMutation names one undirected edge to add or remove. For
// additions, W is the edge weight (0 means 1; negative is an error).
// For removals, W is ignored and the earliest-inserted surviving edge
// joining U and V (either orientation) is removed.
type EdgeMutation = graph.EdgeEdit

// Mutations is one atomic batch of topology edits: RemoveEdges apply
// first (in order), then AddEdges (in order). The batch is
// all-or-nothing — any invalid edit rejects the whole batch with an
// ErrBadMutation-matching error and the topology is unchanged.
type Mutations struct {
	AddEdges    []EdgeMutation
	RemoveEdges []EdgeMutation
}

// topology is one immutable epoch: the graph served, its generation
// ordinal, and a channel closed when a successor is published (the
// stale-abort signal). Requests capture the pointer at admission; the
// pointer is also the batch-compatibility token (sched.Request.Topo).
type topology struct {
	gen   uint64
	g     *Graph
	stale chan struct{}
}

// clusterPlan pins the graph the cluster's remote engines are currently
// built for and the handshake that builds them (shard 0's Hello; its
// Bounds are the shard plan). ApplyMutations replaces the whole plan in
// one store, so a worker that dials sessions and then re-reads the plan
// can detect a rotation that raced its dials.
type clusterPlan struct {
	g     *Graph
	hello wire.Hello
}

// Generation returns the current topology generation. Requests admitted
// now execute against (or, in abort mode, are validated against) this
// epoch.
func (s *Service) Generation() Generation { return Generation(s.topo.Load().gen) }

// ApplyMutations atomically applies a batch of edge edits and publishes
// the result as the next topology generation, returning the new
// generation. The previous graph is never modified — the successor is
// copy-on-write, sharing the adjacency of every untouched node — so
// epoch-pinned requests in flight keep executing against an immutable
// snapshot while new requests admit under the new generation.
//
// Publishing a generation invalidates the result cache exactly like
// InvalidateCache (the generation is folded into every cache digest),
// evicts queued abort-mode batch members, cancels in-flight abort-mode
// executions, and — in cluster mode — rotates the engine handshake so
// the next dial re-pins the remote processes to the new graph digest
// instead of being rejected forever.
//
// An empty batch returns the current generation without bumping it.
// Invalid edits (ErrBadMutation), edits that would strand the installed
// fault plan (a WithFaultPlan link no longer present), and mutations
// after Close are rejected whole; concurrent ApplyMutations calls
// serialize. ctx bounds only the admission (the apply itself is pure
// in-memory work); a done context rejects the batch.
func (s *Service) ApplyMutations(ctx context.Context, m Mutations) (Generation, error) {
	s.mutMu.Lock()
	defer s.mutMu.Unlock()
	cur := s.topo.Load()
	if err := ctx.Err(); err != nil {
		return Generation(cur.gen), fmt.Errorf("distwalk: mutation not applied: %w", err)
	}
	select {
	case <-s.quit:
		return Generation(cur.gen), fmt.Errorf("distwalk: mutation not applied: %w", ErrServiceClosed)
	default:
	}
	if len(m.AddEdges) == 0 && len(m.RemoveEdges) == 0 {
		return Generation(cur.gen), nil
	}
	g2, err := cur.g.ApplyEdits(m.RemoveEdges, m.AddEdges)
	if err != nil {
		return Generation(cur.gen), fmt.Errorf("distwalk: mutation rejected: %w", err)
	}
	// The installed fault plan compiles against per-edge state on every
	// worker reshape; validate its links against the new topology now so
	// the batch fails here, atomically, instead of on some worker later.
	if p := s.cfg.fplan; p != nil {
		for _, l := range p.LinkDrops {
			if !hasEdge(g2, l.From, l.To) {
				return Generation(cur.gen), fmt.Errorf(
					"distwalk: mutation rejected: %w: installed fault plan drops link (%d,%d), absent from the new topology (%w)",
					ErrBadMutation, l.From, l.To, ErrBadFault)
			}
		}
		for _, l := range p.LinkDelays {
			if !hasEdge(g2, l.From, l.To) {
				return Generation(cur.gen), fmt.Errorf(
					"distwalk: mutation rejected: %w: installed fault plan delays link (%d,%d), absent from the new topology (%w)",
					ErrBadMutation, l.From, l.To, ErrBadFault)
			}
		}
	}
	next := &topology{gen: cur.gen + 1, g: g2, stale: make(chan struct{})}
	if len(s.cfg.cluster) > 0 {
		plan, err := s.newClusterPlan(g2, next.gen)
		if err != nil {
			return Generation(cur.gen), fmt.Errorf("distwalk: mutation rejected: %w", err)
		}
		s.clusterPlan.Store(plan)
	}
	s.publishTopology(next)
	s.mut.applied.Add(1)
	s.mut.edgesAdded.Add(int64(len(m.AddEdges)))
	s.mut.edgesRemoved.Add(int64(len(m.RemoveEdges)))
	return Generation(next.gen), nil
}

// publishTopology installs next as the current epoch: the old epoch's
// stale channel closes (cancelling in-flight abort-mode executions),
// the result cache purges (its digests fold the generation, so old
// entries are unreachable anyway; purging frees the bytes), and queued
// abort-mode batch members of dead epochs are evicted with a
// stale-generation error. Callers hold mutMu.
func (s *Service) publishTopology(next *topology) {
	old := s.topo.Load()
	s.topo.Store(next)
	close(old.stale)
	if s.cache != nil {
		s.cache.Purge()
	}
	if s.batch != nil {
		cause := &StaleGenerationError{Old: Generation(old.gen), New: Generation(next.gen)}
		n := s.batch.AbortPending(func(r sched.Request) bool {
			return r.StaleAbort && r.Topo != any(next)
		}, cause)
		s.mut.staleAborts.Add(int64(n))
	}
}

// hasEdge reports whether g has an edge u-v in the given orientation's
// adjacency (undirected edges appear in both).
func hasEdge(g *Graph, u, v NodeID) bool {
	if u < 0 || int(u) >= g.N() {
		return false
	}
	for _, h := range g.Neighbors(u) {
		if h.To == v {
			return true
		}
	}
	return false
}
