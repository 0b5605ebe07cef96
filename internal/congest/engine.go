package congest

import (
	"errors"
	"fmt"

	"distwalk/internal/fault"
	"distwalk/internal/graph"
)

// ShardEngine is the server side of cluster mode: the edge half of one
// shard — the per-directed-edge queues, fault-charging state and delivery
// counters for a contiguous node range — running in a separate process
// (cmd/distwalkd) behind the internal/wire protocol. The node half
// (Init/Step, per-node RNG streams, awake bookkeeping) stays in the
// client process; each round the client pushes that round's sends to the
// engine owning the sender and asks every engine to deliver, merging the
// returned buffers in ascending shard order. It is the same kernel the
// in-process shards run (kernel.go), so the merge reproduces their
// delivery order bit for bit (see doc.go).
//
// A ShardEngine serves one client session: per-edge state (queue contents,
// drop-decision ordinals, delay release rounds) is session state, exactly
// like one pooled worker's Network in-process. Engines are not safe for
// concurrent use; cmd/distwalkd builds one per connection.
type ShardEngine struct {
	// links is the engine's own edge index, queues and compiled fault
	// plan; its round is slaved to the client's via Push/Deliver. edges
	// drains into one buffer: the client is the only destination.
	links links
	edges edgeHalf

	index  int
	nodeLo int32 // global node range [nodeLo, nodeHi)
	nodeHi int32

	// Cumulative occupancy counters (survive RunBegin; exported via the
	// distwalkd expvar endpoint).
	runs      int64
	pushed    int64
	delivered int64
}

// Typed error taxonomy for the remote execution path. ErrShardPlan
// reports an invalid shard plan or index at engine construction;
// ErrBadPush a push frame that violates the protocol contract (sender
// outside the engine's range, non-neighbor destination, empty payload);
// ErrRemoteShard a remote engine that failed or vanished mid-run (the
// client wraps the transport cause, errors.Is-able through it).
var (
	// ErrShardPlan reports an invalid shard plan or shard index.
	ErrShardPlan = errors.New("congest: invalid shard plan")
	// ErrBadPush reports a remote push that violates the protocol
	// contract.
	ErrBadPush = errors.New("congest: invalid remote push")
	// ErrRemoteShard reports a failed remote shard engine.
	ErrRemoteShard = errors.New("congest: remote shard engine failure")
)

// PlanShards returns the S+1 node boundaries of the degree-balanced
// contiguous partition SetShards would build for s shards (s clamped to
// [1, n] the same way), so a cluster client and its remote engines agree
// on the plan without sharing a Network.
func PlanShards(g *graph.G, s int) []int32 {
	n := g.N()
	if s < 1 {
		s = 1
	}
	if s > n {
		s = n
	}
	off := make([]int32, n+1)
	for v := 0; v < n; v++ {
		off[v+1] = off[v] + int32(g.Degree(graph.NodeID(v)))
	}
	return planShards(off, n, s)
}

// validBounds checks that bounds is a monotone cover of [0, n].
func validBounds(bounds []int32, n int) bool {
	if len(bounds) < 2 || bounds[0] != 0 || bounds[len(bounds)-1] != int32(n) {
		return false
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] < bounds[i-1] {
			return false
		}
	}
	return true
}

// NewShardEngine builds the transport engine for shard index of the given
// plan over g: edgeCap messages per directed edge per round (minimum 1,
// the CONGEST bound) and an optional fault plan compiled exactly as
// Network.SetFaultPlan would. The bounds must be a monotone cover of
// [0, n] (PlanShards produces one); violations and an out-of-range index
// fail with ErrShardPlan, a bad plan with the usual ErrBadFault chain.
func NewShardEngine(g *graph.G, bounds []int32, index, edgeCap int, plan *fault.Plan) (*ShardEngine, error) {
	if !validBounds(bounds, g.N()) {
		return nil, fmt.Errorf("%w: bounds %v do not cover [0,%d]", ErrShardPlan, bounds, g.N())
	}
	if index < 0 || index >= len(bounds)-1 {
		return nil, fmt.Errorf("%w: shard index %d outside [0,%d)", ErrShardPlan, index, len(bounds)-1)
	}
	e := &ShardEngine{index: index, nodeLo: bounds[index], nodeHi: bounds[index+1]}
	e.links = links{g: g, cap: max(edgeCap, 1)}
	e.links.buildIndex()
	if plan != nil {
		if err := e.links.SetFaultPlan(plan); err != nil {
			return nil, err
		}
	}
	e.edges = newEdgeHalf(&e.links, e.nodeLo, e.nodeHi, nil, 1)
	return e, nil
}

// Shard reports the engine's shard index.
func (e *ShardEngine) Shard() int { return e.index }

// NodeRange reports the engine's node range [lo, hi).
func (e *ShardEngine) NodeRange() (lo, hi graph.NodeID) {
	return graph.NodeID(e.nodeLo), graph.NodeID(e.nodeHi)
}

// Active reports the number of edges with queued (or in-transit delayed)
// messages — this engine's contribution to the client's quiescence check,
// the exact analogue of the in-process shard's active.count.
func (e *ShardEngine) Active() int { return e.edges.active.count }

// Stats reports the engine's cumulative occupancy counters: runs served,
// messages pushed and messages delivered.
func (e *ShardEngine) Stats() (runs, pushed, delivered int64) {
	return e.runs, e.pushed, e.delivered
}

// RunBegin resets the engine for a fresh run: leftover queues from an
// aborted run drain, counters and the first-loss record clear, the
// per-run fault decision state (drop ordinals, delay releases) resets.
func (e *ShardEngine) RunBegin() {
	e.edges.reset()
	e.links.resetRun()
	e.runs++
}

// Push enqueues the client's sends for the given round. The client has
// already validated each send at the protocol boundary (runErr semantics
// stay client-side); one that still violates the contract here — sender
// outside the engine's range, non-neighbor destination, empty payload —
// is a protocol violation and fails the session with ErrBadPush.
func (e *ShardEngine) Push(round int, msgs []Message) error {
	e.links.round = round
	for i := range msgs {
		m := &msgs[i]
		if int32(m.From) < e.nodeLo || int32(m.From) >= e.nodeHi {
			return fmt.Errorf("%w: sender %d outside shard %d range [%d,%d)",
				ErrBadPush, m.From, e.index, e.nodeLo, e.nodeHi)
		}
		if err := e.edges.enqueue(m.From, m.To, m.Kind, int(m.words), m.W[0], m.W[1], m.W[2], m.W[3]); err != nil {
			return fmt.Errorf("%w: %v", ErrBadPush, err)
		}
	}
	e.pushed += int64(len(msgs))
	return nil
}

// Deliver drains the engine's active edges for the given round and
// returns the survivors in ascending edge order. The buffer is reused
// across rounds; callers must consume it before the next Deliver.
func (e *ShardEngine) Deliver(round int) []Message {
	e.links.round = round
	e.edges.drain()
	out := e.edges.out[0]
	e.delivered += int64(len(out))
	return out
}

// RunEnd returns the run's counters and first-loss record for the
// client to collect.
func (e *ShardEngine) RunEnd() (Result, LossRecord) {
	return e.edges.res, e.edges.loss
}

// MakeMessage constructs a Message explicitly: the wire codec rebuilds
// messages on the far side of a connection with it, and protocols build
// the items the tree primitives carry (words is the payload size in
// O(log n)-bit units).
func MakeMessage(from, to graph.NodeID, kind uint16, words int, w [PayloadWords]uint64) Message {
	return Message{From: from, To: to, Kind: kind, words: uint16(words), W: w}
}
