package distwalk

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"distwalk/internal/cache"
	"distwalk/internal/congest"
	"distwalk/internal/core"
	"distwalk/internal/rng"
	"distwalk/internal/sched"
)

// Service is the concurrent entry point to the paper's algorithms: a
// long-lived pool that multiplexes many simultaneous requests — single
// walks, walk batches, spanning trees, mixing estimates — over one shared
// topology. This is the shape the paper itself motivates: walk sampling as
// a reusable network primitive serving higher-level applications (token
// management, load balancing, search), many of which are in flight at
// once.
//
// Each of the pool's workers owns an independent simulated CONGEST
// network and one long-lived walker on it. A request is identified by a
// caller-chosen request key; before executing, the worker reseeds its
// network with a seed derived from (service seed, key) and Resets its warm
// walker — its slabs and protocol state are reused, so a warm single walk
// allocates 2 objects in the walker, its result and its segment list.
// Determinism is per request key, not per call order or worker history:
// Reset restores the exact observable state of a fresh walker, so the
// result of (graph, service seed, key, request) is bit-identical no matter how many requests run concurrently, which
// worker serves it, or what ran before — the property the golden stress
// tests pin.
//
// All entry points take a context.Context; cancellation and deadlines are
// checked inside the engine's round loop, so even a multi-million-round
// simulated run aborts promptly. Failures wrap the exported sentinel
// errors (see errors.go).
//
// A Service is safe for concurrent use. The graph must never be mutated
// directly while the service is alive; topology changes go through
// ApplyMutations, which publishes a copy-on-write successor under the
// next generation.
type Service struct {
	seed uint64
	cfg  config

	// topo is the current topology epoch: the graph served and its
	// generation. Requests capture the pointer at admission (epoch
	// pinning); mutMu serializes its publisher, ApplyMutations.
	topo  atomic.Pointer[topology]
	mutMu sync.Mutex

	jobs chan func(*poolWorker)
	quit chan struct{}
	wg   sync.WaitGroup

	// batch is the request-coalescing scheduler (nil unless WithBatching
	// was given): SubmitWalk requests queue here and
	// execute as shared MANY-RANDOM-WALKS batches on the same pool.
	batch *sched.Scheduler

	// cache is the deterministic result cache (nil unless WithResultCache
	// was given). Every cache digest folds the topology generation, so a
	// published mutation makes all prior keys unreachable. See
	// internal/cache.
	cache *cache.Cache

	// mut and retry are the live counters behind MutationStats and
	// RetryStats; updated lock-free, read by Stats.
	mut struct {
		applied, edgesAdded, edgesRemoved atomic.Int64
		reshapes                          atomic.Int64
	}
	retry struct{ attempts, retries, recovered, exhausted, faults atomic.Int64 }

	// shardTally is the per-shard work every worker's sharded network adds
	// to at the end of each Run (nil unless WithShards).
	shardTally congest.ShardCounters

	// cluster is cluster mode: engine sessions, health and traffic (nil
	// unless WithCluster; see cluster.go).
	cluster *clusterPool

	closeOnce sync.Once
}

// poolWorker is one worker's warm state: its private simulated network and
// the walker reused (via Reset) across every request the worker serves.
type poolWorker struct {
	net *congest.Network
	wkr *core.Walker
	// sess are the worker's engine sessions (nil unless WithCluster).
	sess *sessionGroup
}

// NewService builds a service over g. seed drives all randomness: together
// with a request key it fully determines every result. Options set the
// service-wide defaults; request methods accept per-request overrides.
func NewService(g *Graph, seed uint64, opts ...Option) (*Service, error) {
	if g == nil || g.N() == 0 {
		return nil, fmt.Errorf("%w: service needs a non-empty graph", ErrGraphTooSmall)
	}
	cfg := defaultConfig()
	cfg.apply(opts)
	if err := cfg.params.Validate(); err != nil {
		return nil, err
	}
	if cfg.shards < 0 {
		cfg.shards = runtime.GOMAXPROCS(0)
	}
	if cfg.shards > g.N() {
		cfg.shards = g.N() // the engine clamps the same way
	}
	var cluster *clusterPool
	if len(cfg.cluster) > 0 {
		// Remote engines own the transport; the in-process shard layout
		// is moot (ConnectRemote forces it off anyway).
		cfg.shards = 1
		var err error
		if cluster, err = newClusterPool(cfg.cluster, seed, cfg.fplan, g); err != nil {
			return nil, err
		}
	}
	s := &Service{
		seed:    seed,
		cfg:     cfg,
		cluster: cluster,
		jobs:    make(chan func(*poolWorker)),
		quit:    make(chan struct{}),
	}
	s.topo.Store(&topology{gen: 1, g: g})
	if cfg.cacheBytes > 0 {
		cc, err := cache.New(cache.Config{MaxBytes: cfg.cacheBytes})
		if err != nil {
			return nil, err
		}
		s.cache = cc
	}
	// Build and validate every worker network before spawning anything: an
	// invalid fault plan fails construction with ErrBadFault instead of
	// leaving a half-started pool behind.
	netOpts := []congest.Option{congest.WithShards(cfg.shards)}
	if cfg.shards > 1 {
		s.shardTally = make(congest.ShardCounters, cfg.shards)
		netOpts = append(netOpts, congest.WithShardCounters(s.shardTally))
	}
	workers := make([]*poolWorker, cfg.workers)
	for i := range workers {
		n := congest.NewNetwork(g, seed, netOpts...)
		if cfg.fplan != nil {
			if err := n.SetFaultPlan(cfg.fplan); err != nil {
				return nil, err
			}
		}
		w, err := core.NewWalkerOn(n, core.DefaultParams())
		if err != nil {
			return nil, err
		}
		workers[i] = &poolWorker{net: n, wkr: w}
	}
	for i := 0; cluster != nil && i < len(workers); i++ {
		var err error
		if workers[i].sess, err = cluster.join(workers[i].net, g); err != nil {
			// A later dial failing must not leak the sessions already
			// established.
			cluster.teardown()
			return nil, err
		}
	}
	for _, pw := range workers {
		s.wg.Add(1)
		go s.worker(pw)
	}
	if cfg.batchOn {
		bc := cfg.batch
		if bc.MaxInFlight < 1 {
			bc.MaxInFlight = cfg.workers
		}
		s.batch = sched.New(seed, bc, s.runBatch)
	}
	return s, nil
}

// worker serves requests on its own warm state until the service closes.
func (s *Service) worker(pw *poolWorker) {
	defer s.wg.Done()
	for {
		select {
		case <-s.quit:
			return
		case job := <-s.jobs:
			job(pw)
		}
	}
}

// Workers returns the size of the worker pool.
func (s *Service) Workers() int { return s.cfg.workers }

// Cluster returns the number of remote shard engines serving this
// service (0 = in-process execution; see WithCluster).
func (s *Service) Cluster() int { return len(s.cfg.cluster) }

// Shards returns the per-worker network shard count (1 = sequential).
func (s *Service) Shards() int { return s.cfg.shards }

// Graph returns the currently served topology (the current generation's
// graph; see ApplyMutations). The returned graph is immutable.
func (s *Service) Graph() *Graph { return s.topo.Load().g }

// Close shuts the pool down. The batching scheduler (if any) closes
// first: members still queued fail with ErrBatchAborted, and in-flight
// batches finish on the pool. Then in-flight requests finish; requests
// not yet picked up by a worker (and all later ones) fail with
// ErrServiceClosed. Close is idempotent and safe to call concurrently
// with requests.
func (s *Service) Close() error {
	s.closeOnce.Do(func() {
		if s.batch != nil {
			s.batch.Close()
		}
		close(s.quit)
		s.wg.Wait()
		if s.cluster != nil {
			// Workers are gone; their engine sessions are safe to tear down.
			s.cluster.teardown()
		}
	})
	return nil
}

// ServiceStats is the service's counter snapshot. Its metric tags name
// the series MetricsHandler serves (see internal/metrics).
type ServiceStats struct {
	// SchedStats are the batching scheduler's counters (zero when built
	// without WithBatching).
	SchedStats `metric:"distwalk_"`
	// Shards reports how much per-round work each network shard carried
	// (protocol steps executed, messages merged) and how long each shard
	// spent waiting at round barriers, summed over every worker's runs
	// (zero when built without WithShards). Shards.Occupancy() is the
	// per-shard work share.
	Shards ShardStats `metric:"distwalk_shard_"`
	// Retry reports the service's recovery activity (see WithRetry).
	Retry RetryStats `metric:"distwalk_"`
	// Cluster reports cluster-mode traffic and engine health (zero value
	// when built without WithCluster).
	Cluster ClusterStats `metric:"distwalk_cluster_,omitzero"`
	// Cache reports the result cache's activity — hits, misses, coalesced
	// waiters, evictions, byte footprint (zero value when built without
	// WithResultCache).
	Cache CacheStats `metric:"distwalk_cache_"`
	// Mutation reports the dynamic-topology activity (see ApplyMutations).
	Mutation MutationStats `metric:"distwalk_"`
}

// MutationStats counts the service's dynamic-topology activity.
type MutationStats struct {
	// Generation is the current topology generation (starts at 1; every
	// ApplyMutations that edits the graph advances it).
	Generation uint64 `metric:"topology_generation,gauge"`
	// Applied counts published mutation batches; EdgesAdded/EdgesRemoved
	// the edits they carried.
	Applied      int64 `metric:"mutations_applied_total,counter"`
	EdgesAdded   int64 `metric:"mutation_edges_total{op=add},counter"`
	EdgesRemoved int64 `metric:"mutation_edges_total{op=remove},counter"`
	// ReshardsFull counts worker-network reshapes; each re-plans the
	// shard partition, so ReshardsIncremental is always 0; it remains
	// only because the benchmark reads it (ROADMAP 2A(f)).
	ReshardsIncremental int64 `metric:"reshards_total{kind=incremental},counter"`
	ReshardsFull        int64 `metric:"reshards_total{kind=full},counter"`
}

// ClusterStats is the cluster-mode slice of a service's counters:
// per-engine traffic and health.
type ClusterStats struct {
	// Engines reports, per remote shard engine, the traffic carried
	// (runs, rounds, messages, raw bytes), summed over every worker's
	// sessions with that engine. Nil when built without WithCluster.
	Engines []ClusterEngineStats `metric:"engine_,index=engine"`
	// Health reports each engine's state, indexed like Engines: "lost"
	// once a session with it died or a dial to it failed, "healthy"
	// again after the next successful dial.
	Health []string `metric:"engine_healthy,gauge,index=engine,is=healthy"`
	// Failovers is always 0: a lost engine fails the request, and no
	// request is re-executed in process. The field and its
	// distwalk_cluster_failovers_total series remain only because the
	// benchmark's cluster check reads it (ROADMAP 2A(j)).
	Failovers int64 `metric:"failovers_total,counter"`
}

// RetryStats counts request attempts and their outcomes across the
// service's lifetime.
type RetryStats struct {
	// Attempts is the total number of request executions, first attempts
	// included.
	Attempts int64 `metric:"request_attempts_total,counter"`
	// Retries counts re-executions after a retryable failure.
	Retries int64 `metric:"request_retries_total,counter"`
	// Recovered counts requests that succeeded on a retry.
	Recovered int64 `metric:"request_recovered_total,counter"`
	// Exhausted counts requests that still failed after their last retry.
	Exhausted int64 `metric:"request_exhausted_total,counter"`
	// Faults counts attempts that failed with a typed fault error
	// (ErrNodeCrashed / ErrMessageLost).
	Faults int64 `metric:"fault_attempts_total,counter"`
}

// Stats returns a snapshot of the service's counters (see ServiceStats).
func (s *Service) Stats() ServiceStats {
	var out ServiceStats
	if s.batch != nil {
		out.SchedStats = s.batch.Stats()
	}
	if s.shardTally != nil {
		out.Shards = s.shardTally.Stats()
	}
	if s.cluster != nil {
		out.Cluster = s.cluster.stats()
	}
	if s.cache != nil {
		out.Cache = s.cache.Stats()
	}
	out.Retry = RetryStats{
		Attempts:  s.retry.attempts.Load(),
		Retries:   s.retry.retries.Load(),
		Recovered: s.retry.recovered.Load(),
		Exhausted: s.retry.exhausted.Load(),
		Faults:    s.retry.faults.Load(),
	}
	out.Mutation = MutationStats{
		Generation:   s.topo.Load().gen,
		Applied:      s.mut.applied.Load(),
		EdgesAdded:   s.mut.edgesAdded.Load(),
		EdgesRemoved: s.mut.edgesRemoved.Load(),
		ReshardsFull: s.mut.reshapes.Load(),
	}
	return out
}

// deriveSeed maps (service seed, request key) to the seed of the
// request's private simulated network, using the rng package's splittable
// stream construction so distinct keys give statistically independent
// executions.
func deriveSeed(seed, key uint64) uint64 {
	return rng.New(seed).Stream(key).Uint64()
}

// attemptSeed salts the request seed with the retry attempt number:
// attempt 0 is deriveSeed unchanged (so retry-enabled services stay
// bit-identical to retry-free ones until something actually fails), and
// each retry splits a fresh, reproducible stream — the result of
// (service seed, key, attempt) is deterministic, which is what makes the
// recovery path testable at all.
func attemptSeed(seed, key uint64, attempt int) uint64 {
	d := deriveSeed(seed, key)
	if attempt > 0 {
		d = rng.New(d).Stream(uint64(attempt)).Uint64()
	}
	return d
}

// submit runs fn on a pool worker and waits for it (or for ctx/closure),
// re-executing up to cfg.retries times, back to back, on retryable
// failures (see Retryable). Every retry salts the attempt seed and stays
// on snap, the topology the request admitted under (epoch pinning).
func (s *Service) submit(ctx context.Context, key uint64, cfg config, snap *topology, fn func(*core.Walker, config) error) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("distwalk: request %d not started: %w", key, err)
	}
	for attempt := 0; ; attempt++ {
		err := s.submitOnce(ctx, key, cfg, attempt, snap, fn)
		s.retry.attempts.Add(1)
		if err == nil {
			if attempt > 0 {
				s.retry.recovered.Add(1)
			}
			return nil
		}
		if isFaultErr(err) {
			s.retry.faults.Add(1)
		}
		if !Retryable(err) {
			return err
		}
		if attempt >= cfg.retries {
			if cfg.retries > 0 {
				s.retry.exhausted.Add(1)
				return fmt.Errorf("distwalk: request %d failed after %d attempts: %w", key, attempt+1, err)
			}
			return err
		}
		if werr := ctx.Err(); werr != nil {
			return fmt.Errorf("distwalk: request %d retry abandoned: %w (last attempt: %w)", key, werr, err)
		}
		s.retry.retries.Add(1)
	}
}

// isFaultErr reports a typed fault loss (as opposed to a transient
// scheduling rejection).
func isFaultErr(err error) bool {
	return errors.Is(err, ErrNodeCrashed) || errors.Is(err, ErrMessageLost)
}

// submitOnce runs one attempt of fn on a pool worker and waits for it.
func (s *Service) submitOnce(ctx context.Context, key uint64, cfg config, attempt int, snap *topology, fn func(*core.Walker, config) error) error {
	done := make(chan error, 1)
	job := func(pw *poolWorker) {
		done <- s.executeOn(ctx, key, cfg, attempt, snap, pw, fn)
	}
	select {
	case s.jobs <- job:
	case <-s.quit:
		return fmt.Errorf("%w (request %d)", ErrServiceClosed, key)
	case <-ctx.Done():
		return fmt.Errorf("distwalk: request %d not started: %w", key, ctx.Err())
	}
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
		// The worker aborts on its own via the network's context check;
		// its late write lands in the buffered channel and is dropped.
		return fmt.Errorf("distwalk: request %d canceled: %w", key, ctx.Err())
	}
}

// executeOn runs one attempt of a per-key request on worker pw: fn under
// the seed of (service seed, key, attempt), against snap, through the
// executor. Nothing here depends on what the worker served before — that
// is the per-key determinism contract.
func (s *Service) executeOn(ctx context.Context, key uint64, cfg config, attempt int, snap *topology, pw *poolWorker, fn func(*core.Walker, config) error) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("distwalk: request %d not started: %w", key, err)
	}
	seed := attemptSeed(s.seed, key, attempt)
	return s.execJob(ctx, pw, snap, func() error {
		return s.runPrepared(ctx, cfg, seed, snap, pw, fn)
	})
}

// runPrepared is the job body every mode shares — per-key requests (seed
// derived from the request key) and batches (seed derived from the batch
// composition), wherever execJob places them. It readies the
// worker's warm state for (seed, cfg) at snap: sync the warm topology to
// the snapshot, reseed the private network, restore the round budget and
// Reset the worker's walker, which re-reads a reshaped graph. Then it
// runs fn under ctx with fault outcomes typed, handing it cfg by value:
// a job body that captured its request's config instead would move that
// config to the heap on every request, cache hits included.
func (s *Service) runPrepared(ctx context.Context, cfg config, seed uint64, snap *topology, pw *poolWorker, fn func(*core.Walker, config) error) error {
	if err := s.syncWarm(pw, snap); err != nil {
		return err
	}
	pw.net.Reseed(seed)
	if cfg.maxRounds > 0 {
		pw.net.SetMaxRounds(cfg.maxRounds)
	} else {
		pw.net.SetMaxRounds(congest.DefaultMaxRounds)
	}
	if err := pw.wkr.Reset(cfg.params); err != nil {
		return err
	}
	pw.net.SetContext(ctx)
	defer pw.net.SetContext(nil)
	return core.Faultize(pw.wkr, fn(pw.wkr, cfg))
}

// execJob is the one executor, for per-key attempts and batches alike:
// it decides where the prepared job run executes. In process it just
// runs. In cluster mode it runs on the remote engines, against the job's
// own snapshot graph (the worker's sessions follow it; see
// clusterPool.exec), and a lost engine fails the job with
// ErrClusterEngine: it is not re-run in process.
func (s *Service) execJob(ctx context.Context, pw *poolWorker, snap *topology, run func() error) error {
	if s.cluster == nil {
		return run()
	}
	return s.cluster.exec(ctx, pw.sess, snap.g, func() error { return s.syncWarm(pw, snap) }, run)
}

// syncWarm reshapes a worker network to the request's snapshot graph
// and counts the reshape. It does nothing when the network already holds
// that graph (the static case). The network must be detached unless the
// graph is unchanged.
func (s *Service) syncWarm(pw *poolWorker, snap *topology) error {
	changed, err := pw.net.Reshape(snap.g)
	if changed {
		s.mut.reshapes.Add(1)
	}
	return err
}

// runBatch is the scheduler's executor: hand the flushed batch to a pool
// worker (reseeded with the batch seed — batch determinism is per
// composition, not per worker) and block until it has run. The batch
// executes under no member's context: one member's cancellation must not
// abort its batchmates, so post-flush cancellation is not observed (see
// internal/sched's determinism notes). It goes through the executor
// per-key attempts use, so in cluster mode a batch runs on the engines
// against the snapshot its members admitted under. A failure before the
// run, sessions that cannot be dialed included, aborts the batch
// retryably (ErrBatchAborted). A batch that loses an engine mid-run has
// already reported the loss to its members (Execute aborts them
// retryably), so it never runs twice; under WithRetry its members then
// re-execute unbatched, on the snapshot they admitted under.
func (s *Service) runBatch(b *sched.Batch) {
	snap := b.Topo.(*topology) // set by submitBatched, the only submitter
	done := make(chan struct{})
	job := func(pw *poolWorker) {
		defer close(done)
		ctx, cfg := context.Background(), s.cfg
		cfg.params, cfg.maxRounds = b.Params, b.MaxRounds
		err := s.execJob(ctx, pw, snap, func() error {
			return s.runPrepared(ctx, cfg, b.Seed, snap, pw, func(w *core.Walker, _ config) error {
				b.Execute(w) // reports its own failure to the members
				return nil
			})
		})
		if err != nil {
			b.Abort(err)
		}
	}
	select {
	case s.jobs <- job:
		<-done
	case <-s.quit:
		b.Abort(ErrServiceClosed)
	}
}

// SingleRandomWalk samples the endpoint of an ℓ-step random walk from
// source in Õ(√(ℓD)) simulated rounds (Theorem 2.5). key identifies the
// request: same key, same result, regardless of concurrency. With
// WithResultCache, repeated and concurrent identical requests are served
// from the cache or coalesced onto one execution — bit-identically.
func (s *Service) SingleRandomWalk(ctx context.Context, key uint64, source NodeID, ell int, opts ...Option) (*WalkResult, error) {
	return serve(ctx, s, &singleKind, key, operands{node: source, ell: ell}, opts)
}

// NaiveWalk runs the O(ℓ)-round token-forwarding baseline.
func (s *Service) NaiveWalk(ctx context.Context, key uint64, source NodeID, ell int, opts ...Option) (*WalkResult, error) {
	return serve(ctx, s, &naiveKind, key, operands{node: source, ell: ell}, opts)
}

// ManyRandomWalks samples k independent ℓ-step walks from the given (not
// necessarily distinct) sources in Õ(min(√(kℓD)+k, k+ℓ)) simulated rounds
// (Theorem 2.8), as one request: the same MANY-RANDOM-WALKS call that
// serves a coalesced SubmitWalk batch, under the caller's key instead of
// a batch seed.
func (s *Service) ManyRandomWalks(ctx context.Context, key uint64, sources []NodeID, ell int, opts ...Option) (*ManyResult, error) {
	return serve(ctx, s, &manyKind, key, operands{sources: sources, ell: ell}, opts)
}

// WalkTrace samples an ℓ-step walk from source and then regenerates it
// (Section 2.2, "Regenerating the entire random walk") so every simulated
// node learns its position(s) in the walk, as one request. The returned
// Trace carries the walk's path (the node at every position 0..ℓ) and
// first-visit edges — the primitive the spanning-tree application builds
// on — plus the regeneration cost; the WalkResult carries the walk itself.
// WalkTrace and RandomSpanningTree are the only requests that regenerate.
func (s *Service) WalkTrace(ctx context.Context, key uint64, source NodeID, ell int, opts ...Option) (*WalkResult, *Trace, error) {
	p, err := serve(ctx, s, &traceKind, key, operands{node: source, ell: ell}, opts)
	return p.walk, p.trace, err
}

// RandomSpanningTree samples a uniformly random spanning tree rooted at
// root in Õ(√(mD)) simulated rounds (Theorem 4.1).
func (s *Service) RandomSpanningTree(ctx context.Context, key uint64, root NodeID, opts ...Option) (*RSTResult, error) {
	return serve(ctx, s, &rstKind, key, operands{node: root}, opts)
}

// EstimateMixingTime estimates τ^x_mix decentralized, in
// Õ(n^{1/2} + n^{1/4}√(Dτ)) simulated rounds (Theorem 4.6).
func (s *Service) EstimateMixingTime(ctx context.Context, key uint64, x NodeID, opts ...Option) (*MixingEstimate, error) {
	return serve(ctx, s, &mixKind, key, operands{node: x}, opts)
}
