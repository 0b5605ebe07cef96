package distwalk

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"distwalk/internal/cache"
	"distwalk/internal/core"
	"distwalk/internal/sched"
)

// Batching types re-exported from the scheduler subsystem.
type (
	// SchedStats is the batching scheduler's counter snapshot; see
	// Service.Stats.
	SchedStats = sched.Stats
	// BatchInfo describes the batch that served a submitted walk: size,
	// batch seed, flush reason, and total plus amortized simulated cost.
	BatchInfo = sched.BatchInfo
)

// Flush reasons reported in BatchInfo.Reason.
const (
	// FlushUnbatched marks a request that ran alone on the per-key
	// deterministic path (service built without WithBatching).
	FlushUnbatched = sched.ReasonUnbatched
	// FlushSize marks a batch flushed by reaching its size threshold.
	FlushSize = sched.ReasonSize
	// FlushDelay marks a batch flushed by its max-delay window expiring.
	FlushDelay = sched.ReasonDelay
	// FlushCached marks a request served from the result cache — a stored
	// entry, or another request's in-flight execution the handle attached
	// to — without an execution of its own (see WithResultCache).
	FlushCached = sched.ReasonCached
)

// WalkHandle is the future of a submitted walk. Exactly one result is
// always delivered — success, pre-flush cancellation, or batch abort —
// so the accessors never block forever on a live service.
type WalkHandle struct {
	ch       <-chan sched.Result
	recvOnce sync.Once
	doneOnce sync.Once
	done     chan struct{}
	res      sched.Result
}

func newWalkHandle(ch <-chan sched.Result) *WalkHandle { return &WalkHandle{ch: ch} }

// wait receives the handle's single result; concurrent callers block on
// the once until the first receive completes.
func (h *WalkHandle) wait() {
	h.recvOnce.Do(func() { h.res = <-h.ch })
}

// Done returns a channel closed when the result is available, for
// select-based callers. Blocking accessors receive directly; the
// forwarding goroutine exists only once Done has been asked for.
func (h *WalkHandle) Done() <-chan struct{} {
	h.doneOnce.Do(func() {
		h.done = make(chan struct{})
		go func() {
			h.wait()
			close(h.done)
		}()
	})
	return h.done
}

// Result blocks until the walk has executed and returns it. On failure
// the error wraps the usual sentinels: a context error if the request
// was cancelled while pending, ErrBatchAborted if its batch could not
// run, ErrQueueFull never (that is rejected at submit time).
func (h *WalkHandle) Result() (*WalkResult, error) {
	h.wait()
	return h.res.Walk, h.res.Err
}

// Trace blocks like Result and returns the regenerated trace (nil unless
// the request was submitted via SubmitWalkTrace).
func (h *WalkHandle) Trace() (*Trace, error) {
	h.wait()
	return h.res.Trace, h.res.Err
}

// Batch blocks like Result and describes the execution that served the
// request — how many walks shared it and at what amortized cost.
func (h *WalkHandle) Batch() BatchInfo {
	h.wait()
	return h.res.Batch
}

// SubmitWalk submits an ℓ-step walk from source asynchronously and
// returns its future. On a service built with WithBatching, concurrent
// submissions with compatible config (same walk parameterization, round
// budget and ℓ) coalesce into one shared MANY-RANDOM-WALKS execution;
// the result is then deterministic per batch composition (see
// internal/sched). Without WithBatching the request runs alone on the
// per-key deterministic path, exactly like SingleRandomWalk.
//
// ctx cancellation is observed while the request is pending: it is
// dropped from its batch before flush and fails with the context error.
// After flush the shared execution runs to completion regardless.
// SubmitWalk itself fails fast on invalid arguments, a full admission
// queue (ErrQueueFull) or a closed service (ErrServiceClosed).
func (s *Service) SubmitWalk(ctx context.Context, key uint64, source NodeID, ell int, opts ...Option) (*WalkHandle, error) {
	return submitAsync(ctx, s, &singleKind, key, source, ell, opts)
}

// SubmitWalkTrace is SubmitWalk plus regeneration: the walk's trace
// (per-node positions and first-visit edges) is computed in the batch's
// shared RegenerateMany pass and returned via WalkHandle.Trace.
func (s *Service) SubmitWalkTrace(ctx context.Context, key uint64, source NodeID, ell int, opts ...Option) (*WalkHandle, error) {
	return submitAsync(ctx, s, &traceKind, key, source, ell, opts)
}

// submitAsync admits one submitted walk of kind k — singleKind, or
// traceKind for a traced walk: the async twins share the synchronous
// entry points' descriptors, and with them their cache entries.
func submitAsync[T any](ctx context.Context, s *Service, k *requestKind[T], key uint64, source NodeID, ell int, opts []Option) (*WalkHandle, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg, snap, err := s.admit(key, opts)
	if err != nil {
		return nil, err
	}
	if err := cfg.params.Validate(); err != nil {
		return nil, err
	}
	if source < 0 || int(source) >= snap.g.N() {
		return nil, fmt.Errorf("%w: node %d not in [0,%d)", ErrBadNode, source, snap.g.N())
	}
	if err := core.CheckLength(ell); err != nil {
		return nil, err
	}
	if k.digest == cacheKindTrace && cfg.params.Metropolis {
		return nil, fmt.Errorf("%w: Metropolis-Hastings walks cannot be traced", ErrNoRegen)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("distwalk: request %d not started: %w", key, err)
	}
	op := operands{node: source, ell: ell}
	if s.batch == nil {
		// Unbatched: the synchronous entry points' request, run async.
		ch := make(chan sched.Result, 1)
		go func() { ch <- serveWalk(ctx, s, k, key, op, cfg, snap) }()
		return newWalkHandle(ch), nil
	}
	if s.cache != nil {
		// Batched service: a submission still serves from the cache or
		// attaches to an in-flight per-key leader instead of queueing —
		// but a batch execution never leads a flight, because its result
		// is deterministic per batch composition, not per key, and must
		// not be published to per-key waiters (or the store).
		if v, f, o := s.cache.Attach(requestDigest(snap.gen, k, key, op, cfg)); o != cache.Miss {
			served := func(v any) sched.Result {
				return s.walkResult(key, k.walk(k.copy(v.(T))), cache.Hit, nil)
			}
			ch := make(chan sched.Result, 1)
			if o == cache.Hit {
				ch <- served(v)
				return newWalkHandle(ch), nil
			}
			go func() {
				wv, err := s.cache.Wait(ctx, f)
				switch {
				case err == nil:
					ch <- served(wv)
				case ctx.Err() != nil:
					ch <- sched.Result{Err: fmt.Errorf("distwalk: request %d canceled while coalesced: %w", key, ctx.Err())}
				default:
					// The leader failed with an error that may be private
					// to it; fall back to this request's own batched
					// submission.
					h, err := submitBatched(ctx, s, k, key, op, cfg, snap)
					if err != nil {
						ch <- sched.Result{Err: err}
						return
					}
					h.wait()
					ch <- h.res
				}
			}()
			return newWalkHandle(ch), nil
		}
	}
	return submitBatched(ctx, s, k, key, op, cfg, snap)
}

// submitBatched queues one admitted submission to the batching scheduler,
// fail-fast (ErrQueueFull at submit time) and wrapped with the
// abort-fallback when retries are on. The admission epoch joins the
// batch-compatibility group, so no batch ever mixes generations.
func submitBatched[T any](ctx context.Context, s *Service, k *requestKind[T], key uint64, op operands, cfg *config, snap *topology) (*WalkHandle, error) {
	req := sched.Request{
		Key:       key,
		Source:    op.node,
		Ell:       op.ell,
		Trace:     k.digest == cacheKindTrace,
		Params:    cfg.params,
		MaxRounds: cfg.maxRounds,
		Topo:      snap,
	}
	ch, err := s.batch.Submit(ctx, req)
	// Backpressure retry: a full admission queue drains as batches flush,
	// so with WithRetry we re-admit instead of failing fast.
	for attempt := 0; err != nil && errors.Is(err, sched.ErrQueueFull) && attempt < cfg.retries && ctx.Err() == nil; attempt++ {
		s.retry.retries.Add(1)
		ch, err = s.batch.Submit(ctx, req)
	}
	if err != nil {
		if errors.Is(err, sched.ErrSchedulerClosed) {
			return nil, fmt.Errorf("%w (request %d)", ErrServiceClosed, key)
		}
		return nil, err
	}
	if cfg.retries == 0 {
		return newWalkHandle(ch), nil
	}
	// Abort fallback: a batch that failed as a whole (a batchmate's fault,
	// a poisoned shared run) completes its members with a retryable error.
	// With WithRetry the member re-runs alone on the per-key path, which
	// carries its own retry budget, on the snapshot it admitted under.
	out := make(chan sched.Result, 1)
	go func() {
		r := <-ch
		if r.Err != nil && Retryable(r.Err) {
			s.retry.retries.Add(1)
			fb := serveWalk(ctx, s, k, key, op, cfg, snap)
			if fb.Err == nil {
				s.retry.recovered.Add(1)
			}
			r = fb
		}
		out <- r
	}()
	return newWalkHandle(out), nil
}

// serveWalk serves one submitted walk on the per-key path, as a size-one
// batch.
func serveWalk[T any](ctx context.Context, s *Service, k *requestKind[T], key uint64, op operands, cfg *config, snap *topology) sched.Result {
	v, o, err := serveAt(ctx, s, k, key, op, cfg, snap)
	return s.walkResult(key, k.walk(v), o, err)
}

// walkResult wraps a per-key walk in a size-one BatchInfo so callers can
// treat batched and unbatched services uniformly. The reason follows the
// cache outcome: a Miss executed (FlushUnbatched), anything else was
// served (FlushCached) at the stored execution's cost.
func (s *Service) walkResult(key uint64, p tracedWalk, o cache.Outcome, err error) sched.Result {
	if err != nil {
		return sched.Result{Err: err}
	}
	cost := p.walk.Cost
	if p.trace != nil {
		cost.Add(p.trace.Cost)
	}
	reason := FlushUnbatched
	if o != cache.Miss {
		reason = FlushCached
	}
	return sched.Result{Walk: p.walk, Trace: p.trace, Batch: BatchInfo{
		Size: 1, Seed: deriveSeed(s.seed, key), Reason: reason,
		Cost: cost, Amortized: cost,
	}}
}
