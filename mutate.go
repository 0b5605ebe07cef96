package distwalk

// Dynamic topology: batched edge mutation under live traffic.
//
// A Service's topology is versioned by a Generation. Every request
// captures the current generation's snapshot when it admits; a mutation
// (ApplyMutations) builds a copy-on-write successor graph, publishes it
// as generation+1, and retires the old epoch. Requests in flight across
// the boundary are epoch-pinned: each completes against the immutable
// snapshot it admitted under — queued batch members and retries
// included — so the result is exactly what a never-mutated service would
// return. Pinned results of a retired epoch are not stored in the result
// cache (they would be stale on arrival).
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

// topology is one immutable epoch: the graph served and its generation
// ordinal. Requests capture the pointer at admission; the pointer is
// also the batch-compatibility token (sched.Request.Topo).
type topology struct {
	gen uint64
	g   *Graph
}

// Generation returns the current topology generation. Requests admitted
// now execute against this epoch.
func (s *Service) Generation() Generation { return Generation(s.topo.Load().gen) }

// ApplyMutations atomically applies a batch of edge edits and publishes
// the result as the next topology generation, returning the new
// generation. The previous graph is never modified — the successor is
// copy-on-write, sharing the adjacency of every untouched node — so
// epoch-pinned requests in flight keep executing against an immutable
// snapshot while new requests admit under the new generation.
//
// Publishing a generation invalidates the result cache exactly like
// InvalidateCache (the generation is folded into every cache digest).
// In cluster mode, each worker's next job on the new graph redials its
// engine sessions with that graph's handshake.
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
			if !g2.HasEdge(l.From, l.To) {
				return Generation(cur.gen), fmt.Errorf(
					"distwalk: mutation rejected: %w: installed fault plan drops link (%d,%d), absent from the new topology (%w)",
					ErrBadMutation, l.From, l.To, ErrBadFault)
			}
		}
		for _, l := range p.LinkDelays {
			if !g2.HasEdge(l.From, l.To) {
				return Generation(cur.gen), fmt.Errorf(
					"distwalk: mutation rejected: %w: installed fault plan delays link (%d,%d), absent from the new topology (%w)",
					ErrBadMutation, l.From, l.To, ErrBadFault)
			}
		}
	}
	next := &topology{gen: cur.gen + 1, g: g2}
	s.publishTopology(next)
	s.mut.applied.Add(1)
	s.mut.edgesAdded.Add(int64(len(m.AddEdges)))
	s.mut.edgesRemoved.Add(int64(len(m.RemoveEdges)))
	return Generation(next.gen), nil
}

// publishTopology installs next as the current epoch and purges the
// result cache (its digests fold the generation, so old entries are
// unreachable anyway; purging frees the bytes). Requests pinned to the
// old epoch, queued batch members included, run on it untouched.
// Callers hold mutMu.
func (s *Service) publishTopology(next *topology) {
	s.topo.Store(next)
	if s.cache != nil {
		s.cache.Purge()
	}
}
