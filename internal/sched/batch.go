package sched

import (
	"context"
	"errors"
	"fmt"

	"distwalk/internal/congest"
	"distwalk/internal/core"
	"distwalk/internal/graph"
	"distwalk/internal/rng"
)

// Sentinel errors of the batching layer. distwalk re-exports ErrQueueFull
// and ErrBatchAborted; ErrSchedulerClosed is mapped to the service's own
// closed sentinel at the boundary.
var (
	// ErrQueueFull reports a Submit rejected because the request's group
	// already has 4*MaxBatch members pending (backpressure).
	ErrQueueFull = errors.New("distwalk: batch queue full")
	// ErrBatchAborted reports a batched request that was completed without
	// executing its walk: the shared execution failed as a whole, or the
	// scheduler shut down while the request was pending.
	ErrBatchAborted = errors.New("distwalk: batch aborted")
	// ErrSchedulerClosed reports a Submit after Close.
	ErrSchedulerClosed = errors.New("sched: scheduler closed")
)

// Request is one walk-shaped admission: sample the endpoint of an
// Ell-step walk from Source under the given parameterization. Params,
// MaxRounds and Ell define the request's compatibility group; Key
// identifies the request within the batch seed derivation.
type Request struct {
	Key       uint64
	Source    graph.NodeID
	Ell       int
	Params    core.Params
	MaxRounds int
	// Topo identifies the topology epoch the request admitted under; it
	// joins the compatibility group so no batch ever mixes generations.
	// The scheduler only compares it (comparable, typically a pointer).
	Topo any
}

// Result is one member's demultiplexed outcome. Exactly one Result is
// delivered per admitted request, always: on success Walk is set; on
// failure Err wraps a sentinel (ErrBatchAborted, a context error for
// pre-flush cancellation, ...).
type Result struct {
	Walk  *core.WalkResult
	Batch BatchInfo
	Err   error
}

// FlushReason records what triggered the batch that served a request.
type FlushReason uint8

const (
	// ReasonUnbatched marks a request executed alone on the per-key
	// deterministic path (no scheduler involved).
	ReasonUnbatched FlushReason = iota
	// ReasonSize marks a batch flushed by reaching MaxBatch members.
	ReasonSize
	// ReasonDelay marks a batch flushed by the MaxDelay window expiring.
	ReasonDelay
	// ReasonCached marks a request served from the service's result cache
	// (a stored entry or an in-flight leader's published result) without
	// an execution of its own.
	ReasonCached
)

func (r FlushReason) String() string {
	switch r {
	case ReasonSize:
		return "size"
	case ReasonDelay:
		return "delay"
	case ReasonCached:
		return "cached"
	default:
		return "unbatched"
	}
}

// BatchInfo describes the shared execution that served a request: how
// many walks rode together, the batch's derived seed, what flushed it,
// and the batch's total and amortized (per-walk) simulated cost.
type BatchInfo struct {
	Size      int
	Seed      uint64
	Reason    FlushReason
	Cost      congest.Result
	Amortized congest.Result
}

// pending is one admitted, not-yet-executed request.
type pending struct {
	req Request
	ctx context.Context
	seq uint64 // admission order; last-resort sort tie-break
	out chan Result
	// stop releases the context.AfterFunc cancellation watcher; called
	// when the member leaves the admission queue (flush, drop or close).
	stop func() bool
}

// release stops the member's cancellation watcher, if any.
func (p *pending) release() {
	if p.stop != nil {
		p.stop()
	}
}

// Batch is a flushed group, ready to execute on a worker's walker. The
// executor callback receives it, prepares a walker (network reseeded with
// Seed, walker Reset with Params) and calls Execute — or Abort if no
// walker could be prepared.
type Batch struct {
	Ell       int
	Params    core.Params
	MaxRounds int
	// Seed is the batch's network seed, BatchSeed over the sorted member
	// keys: determinism is per batch composition, not per member.
	Seed   uint64
	Reason FlushReason
	// Topo is the topology epoch shared by every member (part of the
	// compatibility group); the executor prepares its walker against it.
	Topo any

	sched   *Scheduler
	members []*pending
}

// Size returns the number of member requests in the batch.
func (b *Batch) Size() int { return len(b.members) }

// BatchSeed derives a batch's network seed from the service seed and the
// batch's member keys in sorted order, folding each key through the rng
// package's splittable stream construction. Same composition, same seed;
// any member added, dropped or renamed changes it. The member count is
// folded first so that e.g. {0} and {0,0} differ.
func BatchSeed(seed uint64, sortedKeys []uint64) uint64 {
	s := rng.New(seed).Stream(uint64(len(sortedKeys))).Uint64()
	for _, k := range sortedKeys {
		s = rng.New(s).Stream(k).Uint64()
	}
	return s
}

// Execute runs the batch as one MANY-RANDOM-WALKS call on w and delivers
// every member's demultiplexed result: its own walk (endpoint, segments,
// per-walk cost) and the batch's total and amortized cost. w must run on
// a network reseeded with b.Seed and have been Reset with b.Params — the
// executor callback's contract. A walk lost to an injected fault fails
// the whole batch.
func (b *Batch) Execute(w *core.Walker) {
	sources := make([]graph.NodeID, len(b.members))
	for i, p := range b.members {
		sources[i] = p.req.Source
	}
	many, err := w.ManyRandomWalks(sources, b.Ell)
	if err != nil {
		b.Abort(err)
		return
	}
	info := BatchInfo{
		Size:      len(b.members),
		Seed:      b.Seed,
		Reason:    b.Reason,
		Cost:      many.Cost,
		Amortized: core.SplitCost(many.Cost, len(b.members)),
	}
	// Counters first: a member that has its result must find it counted.
	if b.sched != nil {
		b.sched.noteExecuted(info)
	}
	for i, p := range b.members {
		p.out <- Result{Walk: many.Walks[i], Batch: info}
	}
}

// Abort completes every member with cause wrapped in ErrBatchAborted. The
// executor calls it when the batch could not run (worker preparation
// failed, pool shutting down); Execute calls it when the shared run
// itself failed, so a member error is always errors.Is-able against both
// ErrBatchAborted and the underlying cause.
func (b *Batch) Abort(cause error) {
	if b.sched != nil {
		b.sched.noteAborted(len(b.members))
	}
	for _, p := range b.members {
		p.out <- Result{Err: fmt.Errorf("%w (request %d): %w", ErrBatchAborted, p.req.Key, cause)}
	}
}
