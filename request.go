package distwalk

// The one request path: every per-key entry point is a requestKind
// descriptor resolved by serve.

import (
	"context"
	"fmt"

	"distwalk/internal/cache"
	"distwalk/internal/core"
	"distwalk/internal/mixing"
	"distwalk/internal/spanning"
)

// Request kinds folded into every cache digest, so requests of different
// entry points can never share a key even with identical operands.
const (
	cacheKindSingle uint64 = iota + 1
	cacheKindNaive
	cacheKindMany
	cacheKindTrace
	cacheKindRST
	cacheKindMix
)

// operands are a request's key-specific inputs. node is the source, root
// or x; a kind reads only the fields its entry point takes.
type operands struct {
	node    NodeID
	ell     int
	sources []NodeID
}

// requestKind describes one entry point to serve. Descriptors are
// package-level values over plain functions, and operands and the config
// travel by value: describing a request allocates nothing, so a cache hit
// allocates only the copy it returns.
type requestKind[T any] struct {
	// digest is the kind word of the cache key; requestDigest also
	// switches on it to fold the kind-specific operands.
	digest uint64
	// run executes the request on a worker's prepared walker.
	run func(w *core.Walker, cfg config, op operands) (T, error)
	// entry sizes a result for the cache (see cache_service.go).
	entry func(T) int64
	// copy deep-copies a frozen master for return.
	copy func(T) T
}

// tracedWalk is the result of a WalkTrace request: the walk and its
// regenerated trace travel as one cache entry.
type tracedWalk struct {
	walk  *WalkResult
	trace *Trace
}

// walkKind describes SingleRandomWalk and NaiveWalk: the same operands
// and result type under two digest kinds.
func walkKind(digest uint64, walk func(*core.Walker, NodeID, int) (*WalkResult, error)) requestKind[*WalkResult] {
	return requestKind[*WalkResult]{
		digest: digest,
		run: func(w *core.Walker, _ config, op operands) (*WalkResult, error) {
			return walk(w, op.node, op.ell)
		},
		entry: walkEntry,
		copy:  copyWalkResult,
	}
}

var (
	singleKind = walkKind(cacheKindSingle, (*core.Walker).SingleRandomWalk)
	naiveKind  = walkKind(cacheKindNaive, (*core.Walker).NaiveWalk)
	manyKind   = requestKind[*ManyResult]{
		digest: cacheKindMany,
		run: func(w *core.Walker, _ config, op operands) (*ManyResult, error) {
			return w.ManyRandomWalks(op.sources, op.ell)
		},
		entry: manyEntry,
		copy:  copyManyResult,
	}
	traceKind = requestKind[tracedWalk]{
		digest: cacheKindTrace,
		run: func(w *core.Walker, _ config, op operands) (tracedWalk, error) {
			walk, err := w.SingleRandomWalk(op.node, op.ell)
			if err != nil {
				return tracedWalk{}, err
			}
			tr, err := w.Regenerate(walk)
			if err != nil {
				return tracedWalk{}, err
			}
			return tracedWalk{walk: walk, trace: tr}, nil
		},
		entry: traceEntry,
		copy:  copyTracedWalk,
	}
	rstKind = requestKind[*RSTResult]{
		digest: cacheKindRST,
		run: func(w *core.Walker, cfg config, op operands) (*RSTResult, error) {
			return spanning.RandomSpanningTree(w, op.node, cfg.rst)
		},
		entry: rstEntry,
		copy:  copyRST,
	}
	mixKind = requestKind[*MixingEstimate]{
		digest: cacheKindMix,
		run: func(w *core.Walker, cfg config, op operands) (*MixingEstimate, error) {
			return mixing.EstimateTau(w, op.node, cfg.mix)
		},
		entry: mixEntry,
		copy:  copyMixing,
	}
)

// requestDigest folds every result-determining input of a request into a
// canonical cache key: topology generation, request kind, request key,
// the full walk parameterization, the round budget, the retry budget
// (under a fault plan, which attempt succeeds — and therefore which
// attempt-salted seed produced the result — depends on it), and the
// kind-specific operands. Fields that cannot change a result (workers,
// shards, cluster transport, batching windows) are deliberately absent;
// see internal/cache/doc.go. Nothing here escapes, so building a key
// allocates nothing.
func requestDigest(gen, kind, key uint64, op operands, cfg *config) cache.Key {
	d := cache.NewDigest()
	d.U64(gen)
	d.U64(kind)
	d.U64(key)
	p := cfg.params
	d.F64(p.LambdaC)
	d.I64(int64(p.Lambda))
	d.I64(int64(p.Eta))
	d.Bool(p.Theory)
	d.Bool(p.FixedLength)
	d.Bool(p.UniformCounts)
	d.Bool(p.PerCallBFS)
	d.Bool(p.Metropolis)
	d.I64(int64(cfg.maxRounds))
	d.I64(int64(cfg.retries))
	switch kind {
	case cacheKindSingle, cacheKindNaive, cacheKindTrace:
		d.I64(int64(op.node))
		d.I64(int64(op.ell))
	case cacheKindMany:
		d.I64(int64(len(op.sources)))
		for _, src := range op.sources {
			d.I64(int64(src))
		}
		d.I64(int64(op.ell))
	case cacheKindRST:
		d.I64(int64(op.node))
		d.I64(int64(cfg.rst.StartLength))
		d.I64(int64(cfg.rst.WalksPerPhase))
		d.I64(int64(cfg.rst.MaxLength))
		d.Bool(cfg.rst.Deliver)
	case cacheKindMix:
		d.I64(int64(op.node))
		d.I64(int64(cfg.mix.Samples))
		d.F64(cfg.mix.Eps)
		d.F64(cfg.mix.BucketRatio)
		d.I64(int64(cfg.mix.MaxEll))
		// Options.Debug only prints; it cannot change the estimate.
	}
	return d.Key()
}

// admit applies a request's options and captures its topology epoch —
// once each per request. The cache digest, the execution and the
// staleness check all use the returned snapshot, so a mutation published
// after admission cannot move the request, or the waiters coalesced onto
// its flight, off the generation its cache key names.
func (s *Service) admit(key uint64, opts []Option) (config, *topology, error) {
	cfg := s.cfg
	if err := cfg.applyRequest(opts); err != nil {
		return cfg, nil, fmt.Errorf("distwalk: request %d: %w", key, err)
	}
	return cfg, s.topo.Load(), nil
}

// serve is the body of every synchronous entry point.
func serve[T any](ctx context.Context, s *Service, k *requestKind[T], key uint64, op operands, opts []Option) (v T, err error) {
	cfg, snap, err := s.admit(key, opts)
	if err != nil {
		return v, err
	}
	v, _, err = serveAt(ctx, s, k, key, op, &cfg, snap)
	return v, err
}

// serveAt resolves an admitted request: through the cache when the
// service has one — hit, attach to an in-flight leader, or lead the
// execution — and straight to the pool when not. The outcome says which
// (Miss: this call executed). Stored results are frozen masters, so every
// return through the cache is a deep copy (see internal/cache/doc.go); an
// uncached result is the caller's alone already.
func serveAt[T any](ctx context.Context, s *Service, k *requestKind[T], key uint64, op operands, cfg *config, snap *topology) (T, cache.Outcome, error) {
	if s.cache == nil {
		v, err := runRequest(ctx, s, k, key, op, cfg, snap)
		return v, cache.Miss, err
	}
	v, o, err := s.cache.Do(ctx, requestDigest(snap.gen, k.digest, key, op, cfg), func() (cache.Execution, error) {
		res, err := runRequest(ctx, s, k, key, op, cfg, snap)
		if err != nil {
			return cache.Execution{}, err
		}
		// An epoch-pinned result that outlived its generation is shared
		// with the flight's waiters but never stored: its own key is
		// already unreachable, and it is stale under any successor's.
		return cache.Execution{Value: res, Bytes: k.entry(res), NoStore: s.topo.Load() != snap}, nil
	})
	if err != nil {
		// The only error Do surfaces unwrapped is a coalesced waiter's own
		// context expiry.
		if o == cache.Coalesced {
			err = fmt.Errorf("distwalk: request %d canceled while coalesced: %w", key, err)
		}
		var zero T
		return zero, o, err
	}
	return k.copy(v.(T)), o, nil
}

// runRequest executes the request's body on a pool worker (see submit).
func runRequest[T any](ctx context.Context, s *Service, k *requestKind[T], key uint64, op operands, cfg *config, snap *topology) (T, error) {
	var out T
	err := s.submit(ctx, key, *cfg, snap, func(w *core.Walker, cfg config) (err error) {
		// cfg is the worker's copy (see runPrepared), not a capture.
		out, err = k.run(w, cfg, op)
		return err
	})
	if err != nil {
		// A worker abandoned on cancellation may still write out.
		var zero T
		return zero, err
	}
	return out, nil
}
