package distwalk

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"distwalk/internal/cache"
	"distwalk/internal/congest"
	"distwalk/internal/core"
	"distwalk/internal/rng"
	"distwalk/internal/sched"
	"distwalk/internal/wire"
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
// walker — coupon shelves, hop logs, flow ledgers and tree slabs keep
// their capacity across requests, so steady-state requests allocate
// nothing for protocol state. Determinism is per request key, not per
// call order or worker history: Reset restores the exact observable state
// of a fresh walker, so the result of (graph, service seed, key, request)
// is bit-identical no matter how many requests run concurrently, which
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

	// topo is the current topology epoch: the graph served, its
	// generation, and the stale channel closed when it is superseded.
	// Requests capture the pointer at admission (epoch pinning); mutMu
	// serializes the publishers (ApplyMutations, InvalidateCache).
	topo  atomic.Pointer[topology]
	mutMu sync.Mutex

	// clusterPlan pins the graph and handshake the remote engines
	// currently serve (nil unless WithCluster); rotated by ApplyMutations
	// (see clusterRun).
	clusterPlan atomic.Pointer[clusterPlan]

	jobs chan func(*poolWorker)
	quit chan struct{}
	wg   sync.WaitGroup

	// batch is the request-coalescing scheduler (nil unless WithBatching
	// was given): SubmitWalk/SubmitWalkTrace requests queue here and
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
		applied, edgesAdded, edgesRemoved, staleAborts atomic.Int64
		reshardsInc, reshardsFull                      atomic.Int64
	}
	retry struct{ attempts, retries, recovered, exhausted, faults atomic.Int64 }

	// shardTally is the per-shard work every worker's sharded network adds
	// to at the end of each Run (nil unless WithShards).
	shardTally congest.ShardCounters

	// Cluster mode (empty unless WithCluster): per engine, whether its
	// last session was lost or its last dial failed (Stats' Health), the
	// traffic block every worker's session with it adds to, and the
	// failover counter. workers is kept for Close teardown of per-worker
	// engine sessions.
	clusterLost      []atomic.Bool
	clusterTally     []wire.EngineCounters
	clusterFailovers atomic.Int64
	workers          []*poolWorker

	closeOnce sync.Once
}

// poolWorker is one worker's warm state: its private simulated network and
// the walker reused (via Reset) across every request the worker serves.
type poolWorker struct {
	net *congest.Network
	wkr *core.Walker
	// conns are this worker's cluster-mode engine sessions (nil when
	// in-process; individual entries go nil when a session is lost until
	// the next cluster run re-dials it). attached reports whether the
	// worker network currently executes through conns.
	conns    []*wire.EngineConn
	attached bool
	// clusterTopo is the graph the worker's current engine sessions were
	// handshaken for; when it trails the cluster plan the sessions hold
	// engines built from a dead topology and must be re-dialed.
	clusterTopo *Graph
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
	if len(cfg.cluster) > 0 {
		// Remote engines own the transport; the in-process shard layout
		// is moot (ConnectRemote forces it off anyway).
		cfg.shards = 1
		if len(cfg.cluster) > g.N() {
			return nil, fmt.Errorf("%w: %d cluster engines for a %d-node graph",
				ErrClusterConfig, len(cfg.cluster), g.N())
		}
	}
	s := &Service{
		seed: seed,
		cfg:  cfg,
		jobs: make(chan func(*poolWorker)),
		quit: make(chan struct{}),
	}
	s.topo.Store(&topology{gen: 1, g: g, stale: make(chan struct{})})
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
	nets := make([]*congest.Network, cfg.workers)
	for i := range nets {
		n := congest.NewNetwork(g, seed, netOpts...)
		n.SetGeneration(1)
		if cfg.fplan != nil {
			if err := n.SetFaultPlan(cfg.fplan); err != nil {
				return nil, err
			}
		}
		nets[i] = n
	}
	workers := make([]*poolWorker, cfg.workers)
	for i, n := range nets {
		workers[i] = &poolWorker{net: n}
	}
	s.workers = workers
	if len(cfg.cluster) > 0 {
		if err := s.initCluster(workers); err != nil {
			// A later dial failing must not leak the sessions already
			// established.
			closeWorkerConns(workers)
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

// Per-exchange deadline of cluster runs: the request context's remaining
// budget, or clusterRoundTimeout when the context has none, never below
// clusterRoundFloor (see armCluster).
const (
	clusterRoundTimeout = 30 * time.Second
	clusterRoundFloor   = 100 * time.Millisecond
)

// initCluster pins the cluster plan for the initial topology and dials
// every worker's initial sessions.
func (s *Service) initCluster(workers []*poolWorker) error {
	top := s.topo.Load()
	plan, err := s.newClusterPlan(top.g, top.gen)
	if err != nil {
		return err
	}
	s.clusterPlan.Store(plan)
	engines := len(s.cfg.cluster)
	s.clusterLost = make([]atomic.Bool, engines)
	s.clusterTally = make([]wire.EngineCounters, engines)
	for _, pw := range workers {
		if err := s.ensureCluster(context.Background(), pw, plan); err != nil {
			return err
		}
	}
	return nil
}

// newClusterPlan builds the handshake for serving g at generation gen
// (graph digest, shard plan, edge capacity, fault plan). Every session
// re-sends it with only the shard index varying, which is what pins
// redialed sessions to the same graph digest.
func (s *Service) newClusterPlan(g *Graph, gen uint64) (*clusterPlan, error) {
	engines := len(s.cfg.cluster)
	h := wire.HelloFor(g, engines, 0, 1, s.seed, s.cfg.fplan)
	if len(h.Bounds) != engines+1 {
		return nil, fmt.Errorf("%w: shard plan has %d ranges for %d engines",
			ErrClusterConfig, len(h.Bounds)-1, engines)
	}
	h.Gen = gen
	return &clusterPlan{g: g, hello: h}, nil
}

// ensureCluster repairs a worker's engine sessions before a cluster run:
// broken sessions are closed, missing ones are dialed with plan's
// handshake within ctx, and the worker network is re-attached to the
// session group under plan's shard bounds.
// With every session healthy it is a no-op. Callers that loaded plan
// before dialing must re-check it afterwards: a mutation may have rotated
// it mid-ensure (see clusterRun).
func (s *Service) ensureCluster(ctx context.Context, pw *poolWorker, plan *clusterPlan) error {
	if pw.conns == nil {
		pw.conns = make([]*wire.EngineConn, len(s.cfg.cluster))
	}
	for i, c := range pw.conns {
		if c != nil && c.Broken() {
			c.Close()
			pw.conns[i] = nil
		}
		if pw.conns[i] == nil && pw.attached {
			// The network must never run against a group with holes.
			pw.attached = false
			pw.net.ConnectRemote(nil, nil)
		}
	}
	for i := range pw.conns {
		if pw.conns[i] != nil {
			continue
		}
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("distwalk: cluster engine %d (%s) not redialed: %w",
				i, s.cfg.cluster[i], err)
		}
		h := plan.hello
		h.Shard = i
		c, err := wire.DialEngineContext(ctx, s.cfg.cluster[i], h, &s.clusterTally[i])
		s.clusterLost[i].Store(err != nil)
		if err != nil {
			return fmt.Errorf("distwalk: cluster engine %d (%s): %w: %w",
				i, s.cfg.cluster[i], ErrClusterEngine, err)
		}
		pw.conns[i] = c
	}
	if !pw.attached {
		group := make([]congest.RemoteShard, len(pw.conns))
		for i, c := range pw.conns {
			group[i] = c
		}
		if err := pw.net.ConnectRemote(group, plan.hello.Bounds); err != nil {
			return err
		}
		pw.attached = true
	}
	pw.clusterTopo = plan.g
	return nil
}

// dropClusterConns tears down every session of the worker after a loss.
// The protocol is strictly synchronous per session, but the round loop
// writes to all engines before reading any reply — once one engine fails
// mid-run, the surviving sessions may hold half-exchanged frames and
// cannot be trusted with another run, so the whole group goes. The
// failing engine is marked lost (errors.As digs the shard out of cause)
// and the network detaches until ensureCluster re-attaches.
func (s *Service) dropClusterConns(pw *poolWorker, cause error) {
	var le *wire.EngineLostError
	if errors.As(cause, &le) && le.Shard >= 0 && le.Shard < len(s.clusterLost) {
		s.clusterLost[le.Shard].Store(true)
	}
	for i, c := range pw.conns {
		if c == nil {
			continue
		}
		c.Close()
		pw.conns[i] = nil
	}
	pw.attached = false
	pw.clusterTopo = nil
	pw.net.ConnectRemote(nil, nil)
}

// clusterBroken reports whether any of the worker's sessions failed.
func clusterBroken(pw *poolWorker) bool {
	for _, c := range pw.conns {
		if c != nil && c.Broken() {
			return true
		}
	}
	return false
}

// armCluster installs this request's per-exchange deadline on every
// session: the request context's remaining budget (clusterRoundTimeout
// when the context has no deadline), floored at clusterRoundFloor so a
// nearly-expired context still gets one meaningful exchange (the round
// loop's own context check handles actual expiry).
func (s *Service) armCluster(ctx context.Context, pw *poolWorker) {
	t := clusterRoundTimeout
	if dl, ok := ctx.Deadline(); ok {
		t = time.Until(dl)
	}
	t = max(t, clusterRoundFloor)
	for _, c := range pw.conns {
		if c != nil {
			c.SetRoundTimeout(t)
		}
	}
}

// closeWorkerConns tears down every worker's engine sessions (nil-safe:
// dial failures and dropped sessions leave holes). Used by the
// construction failure path and by Close.
func closeWorkerConns(workers []*poolWorker) {
	for _, pw := range workers {
		for i, c := range pw.conns {
			if c != nil {
				c.Close()
				pw.conns[i] = nil
			}
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
		// Workers are gone; their engine sessions are safe to tear down.
		closeWorkerConns(s.workers)
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
	// Cluster reports cluster-mode traffic, engine health and failovers
	// (zero value when built without WithCluster).
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
	// ApplyMutations and InvalidateCache advances it).
	Generation uint64 `metric:"topology_generation,gauge"`
	// Applied counts published mutation batches; EdgesAdded/EdgesRemoved
	// the edits they carried.
	Applied      int64 `metric:"mutations_applied_total,counter"`
	EdgesAdded   int64 `metric:"mutation_edges_total{op=add},counter"`
	EdgesRemoved int64 `metric:"mutation_edges_total{op=remove},counter"`
	// StaleAborts counts requests failed with ErrStaleGeneration —
	// queued batch members evicted at publish plus abort-mode executions
	// cancelled or fast-failed.
	StaleAborts int64 `metric:"stale_aborts_total,counter"`
	// ReshardsIncremental/ReshardsFull count worker-network reshapes by
	// kind: incremental kept the existing shard partition (the mutation
	// left the per-shard edge balance within tolerance), full re-planned
	// it (or the network was unsharded).
	ReshardsIncremental int64 `metric:"reshards_total{kind=incremental},counter"`
	ReshardsFull        int64 `metric:"reshards_total{kind=full},counter"`
}

// ClusterStats is the cluster-mode slice of a service's counters:
// per-engine traffic and health, and failovers.
type ClusterStats struct {
	// Engines reports, per remote shard engine, the traffic carried
	// (runs, rounds, messages, raw bytes), summed over every worker's
	// sessions with that engine. Nil when built without WithCluster.
	Engines []ClusterEngineStats `metric:"engine_,index=engine"`
	// Health reports each engine's state, indexed like Engines: "lost"
	// once a session with it died or a dial to it failed, "healthy"
	// again after the next successful dial.
	Health []string `metric:"engine_healthy,gauge,index=engine,is=healthy"`
	// Failovers counts requests re-executed on in-process shards after
	// losing their cluster run (see WithClusterFallback).
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
	// One row per engine from the start: Stats and /metrics must name
	// every engine before it has served anything, which is exactly when
	// a dead one needs to be visible.
	for i := range s.clusterTally {
		health := "healthy"
		if s.clusterLost[i].Load() {
			health = "lost"
		}
		out.Cluster.Engines = append(out.Cluster.Engines, s.clusterTally[i].Stats(s.cfg.cluster[i], i))
		out.Cluster.Health = append(out.Cluster.Health, health)
	}
	out.Cluster.Failovers = s.clusterFailovers.Load()
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
		Generation:          s.topo.Load().gen,
		Applied:             s.mut.applied.Load(),
		EdgesAdded:          s.mut.edgesAdded.Load(),
		EdgesRemoved:        s.mut.edgesRemoved.Load(),
		StaleAborts:         s.mut.staleAborts.Load(),
		ReshardsIncremental: s.mut.reshardsInc.Load(),
		ReshardsFull:        s.mut.reshardsFull.Load(),
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
// re-executing up to cfg.retries times on retryable failures (see
// Retryable) with attempt-salted seeds and exponential backoff. snap is
// the topology the request admitted under; it is kept across fault
// retries (pin semantics), while a stale-generation failure refreshes it
// without consuming attempt salting, so the retry is bit-identical to a
// request freshly admitted after the mutation.
func (s *Service) submit(ctx context.Context, key uint64, cfg config, snap *topology, fn func(*core.Walker) error) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("distwalk: request %d not started: %w", key, err)
	}
	attempt, tries := 0, 0
	for {
		err := s.submitOnce(ctx, key, cfg, attempt, snap, fn)
		s.retry.attempts.Add(1)
		if err == nil {
			if tries > 0 {
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
		if tries >= cfg.retries {
			if cfg.retries > 0 {
				s.retry.exhausted.Add(1)
				return fmt.Errorf("distwalk: request %d failed after %d attempts: %w", key, tries+1, err)
			}
			return err
		}
		if werr := ctx.Err(); werr != nil {
			return fmt.Errorf("distwalk: request %d retry abandoned: %w (last attempt: %w)", key, werr, err)
		}
		tries++
		s.retry.retries.Add(1)
		if errors.Is(err, ErrStaleGeneration) {
			snap = s.topo.Load()
		} else {
			attempt++
		}
	}
}

// isFaultErr reports a typed fault loss (as opposed to a transient
// scheduling rejection).
func isFaultErr(err error) bool {
	return errors.Is(err, ErrNodeCrashed) || errors.Is(err, ErrMessageLost)
}

// submitOnce runs one attempt of fn on a pool worker and waits for it.
func (s *Service) submitOnce(ctx context.Context, key uint64, cfg config, attempt int, snap *topology, fn func(*core.Walker) error) error {
	done := make(chan error, 1)
	job := func(pw *poolWorker) {
		done <- s.execute(ctx, key, cfg, attempt, snap, pw, fn)
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

// execute prepares the worker's warm state for this request and runs fn:
// reseed the network from (service seed, key, attempt), reshape it when
// its warm topology trails the request's snapshot, Reset the pooled
// walker (first request builds it), and apply per-request knobs. Nothing
// here depends on what the worker served before — that is the per-key
// determinism contract. On failure the error is faultized: if the run
// lost a token to an injected fault, the typed fault error replaces
// protocol-level detection noise even for drivers (spanning, mixing)
// that run congest primitives outside the Walker methods.
//
// In abort mode (WithStaleAbort) execution races the snapshot's stale
// channel: a mutation published before the run starts fails fast, one
// published mid-run cancels the engine at its next round check; both
// surface as a *StaleGenerationError. A caller-initiated cancellation is
// never translated — context.Cause distinguishes the two.
func (s *Service) execute(ctx context.Context, key uint64, cfg config, attempt int, snap *topology, pw *poolWorker, fn func(*core.Walker) error) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("distwalk: request %d not started: %w", key, err)
	}
	if !cfg.staleAbort {
		return s.executeOn(ctx, key, cfg, attempt, snap, pw, fn)
	}
	select {
	case <-snap.stale:
		s.mut.staleAborts.Add(1)
		return s.staleErr(key, snap)
	default:
	}
	cctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-snap.stale:
			cancel(s.staleErr(key, snap))
		case <-done:
		case <-cctx.Done():
		}
	}()
	err := s.executeOn(cctx, key, cfg, attempt, snap, pw, fn)
	if err != nil {
		if cause := context.Cause(cctx); cause != nil && errors.Is(cause, ErrStaleGeneration) {
			s.mut.staleAborts.Add(1)
			return cause
		}
	}
	return err
}

// staleErr builds the typed stale-generation failure for a request
// admitted under snap.
func (s *Service) staleErr(key uint64, snap *topology) error {
	return fmt.Errorf("distwalk: request %d: %w", key,
		&StaleGenerationError{Old: Generation(snap.gen), New: Generation(s.topo.Load().gen)})
}

// runPrepared is the one executor every mode shares — per-key requests
// (seed derived from the request key) and batches (seed derived from the
// batch composition), in process or over the cluster. It readies the
// worker's warm state for (seed, cfg) at snap: sync the warm topology to
// the snapshot, reseed the private network, restore the round budget and
// Reset the pooled walker (the first request builds it; a reshaped graph
// forces a rebuild). Then it runs fn under ctx with fault outcomes typed.
func (s *Service) runPrepared(ctx context.Context, cfg config, seed uint64, snap *topology, pw *poolWorker, fn func(*core.Walker) error) error {
	if err := s.syncWarm(pw, snap); err != nil {
		return err
	}
	pw.net.Reseed(seed)
	if cfg.maxRounds > 0 {
		pw.net.SetMaxRounds(cfg.maxRounds)
	} else {
		pw.net.SetMaxRounds(congest.DefaultMaxRounds)
	}
	if pw.wkr == nil {
		w, err := core.NewWalkerOn(pw.net, cfg.params)
		if err != nil {
			return err
		}
		pw.wkr = w
	} else if err := pw.wkr.Reset(cfg.params); err != nil {
		return err
	}
	pw.net.SetContext(ctx)
	defer pw.net.SetContext(nil)
	return core.Faultize(pw.wkr, fn(pw.wkr))
}

// errClusterMoved is clusterRun's report that the remote engines do not
// (or no longer) serve the run's topology; nothing ran.
var errClusterMoved = errors.New("cluster serves another topology generation")

// clusterRun brackets one run over the worker's remote engine sessions,
// for per-key requests and batches alike: repair the sessions, arm the
// round deadlines, and drop the whole group if the run broke any of it.
//
// Topology epochs interact with the cluster in three ways. A run pinned
// to a graph the engines no longer serve is refused (errClusterMoved),
// keeping any healthy sessions for later requests. A worker whose
// sessions were handshaken for a superseded graph drops them so
// ensureCluster re-dials with the rotated Hello — the server re-pins to
// the strictly newer generation. And a mutation racing the re-dial shows
// as a plan change after ensureCluster, so the fresh sessions are dropped
// and the run refused likewise — also when the stale Hello was rejected
// by an engine another worker had already re-pinned.
func (s *Service) clusterRun(ctx context.Context, pw *poolWorker, snap *topology, run func() error) error {
	plan := s.clusterPlan.Load()
	if plan.g != snap.g {
		return errClusterMoved
	}
	if pw.clusterTopo != nil && pw.clusterTopo != plan.g {
		// The sessions hold per-session engines built from a dead
		// topology; drop them so ensureCluster re-dials fresh.
		s.dropClusterConns(pw, nil)
	}
	if err := s.syncWarm(pw, snap); err != nil {
		return err
	}
	err := s.ensureCluster(ctx, pw, plan)
	if s.clusterPlan.Load() != plan {
		s.dropClusterConns(pw, nil)
		return errClusterMoved
	}
	if err != nil {
		return err
	}
	s.armCluster(ctx, pw)
	err = run()
	if clusterBroken(pw) {
		s.dropClusterConns(pw, err)
	}
	return err
}

// executeOn is execute's epoch-resolved body: run fn under the attempt's
// seed — in process, or in cluster mode over the remote engines and, when
// that run is lost and WithClusterFallback is on, again on in-process
// shards with the same seed. Sharded execution is bit-identical to
// cluster execution per (graph, seed, request), so the failed-over result
// is what the fault-free cluster run would have produced; a request the
// cluster has rotated past runs in-process by the same argument, no
// failover counted.
func (s *Service) executeOn(ctx context.Context, key uint64, cfg config, attempt int, snap *topology, pw *poolWorker, fn func(*core.Walker) error) error {
	seed := attemptSeed(s.seed, key, attempt)
	run := func() error { return s.runPrepared(ctx, cfg, seed, snap, pw, fn) }
	if len(s.cfg.cluster) == 0 {
		return run()
	}
	runErr := s.clusterRun(ctx, pw, snap, run)
	if runErr == errClusterMoved {
		return s.executeLocalShards(pw, snap, run)
	}
	if runErr == nil || !errors.Is(runErr, ErrClusterEngine) || !cfg.clusterFallback {
		return runErr
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("distwalk: request %d lost its cluster run and cannot fail over: %w", key, err)
	}
	if pw.attached {
		// Defensive: a cluster-typed failure with no broken session still
		// means the group cannot be trusted with another run.
		s.dropClusterConns(pw, runErr)
	}
	s.clusterFailovers.Add(1)
	return s.executeLocalShards(pw, snap, run)
}

// executeLocalShards runs a cluster-mode request on in-process shards —
// the WithShards(len(cluster)) path, bit-identical to the cluster run by
// the identity contract. Serves both failover after a lost cluster run
// and requests pinned to a topology generation the remote engines have
// rotated past; in the pinned case healthy sessions are kept (detached)
// for the next current-generation request.
func (s *Service) executeLocalShards(pw *poolWorker, snap *topology, run func() error) error {
	if pw.attached {
		pw.attached = false
		pw.net.ConnectRemote(nil, nil)
	}
	if err := s.syncWarm(pw, snap); err != nil {
		return err
	}
	pw.net.SetShards(len(s.cfg.cluster))
	defer pw.net.SetShards(1)
	return run()
}

// syncWarm reshapes a worker network whose warm state trails the
// request's topology snapshot, restamping it and discarding the pooled
// walker when the graph actually changed (the walker's degree-sized
// slabs describe the dead topology). A pure generation bump over the
// same graph (InvalidateCache) restamps without rebuilding anything.
// The network must be detached unless the graph is unchanged.
func (s *Service) syncWarm(pw *poolWorker, snap *topology) error {
	if pw.net.Generation() == snap.gen {
		return nil
	}
	kind, err := pw.net.Reshape(snap.g)
	if err != nil {
		return err
	}
	switch kind {
	case congest.ReshapeIncremental:
		s.mut.reshardsInc.Add(1)
		pw.wkr = nil
	case congest.ReshapeFull:
		s.mut.reshardsFull.Add(1)
		pw.wkr = nil
	}
	pw.net.SetGeneration(snap.gen)
	return nil
}

// runBatch is the scheduler's executor: hand the flushed batch to a pool
// worker (reseeded with the batch seed — batch determinism is per
// composition, not per worker) and block until it has run. The batch
// executes under no member's context: one member's cancellation must not
// abort its batchmates, so post-flush cancellation is not observed (see
// internal/sched's determinism notes). In cluster mode it runs inside the
// session bracket per-key requests use; a batch the bracket refuses or
// fails aborts retryably (ErrBatchAborted), so under WithRetry its members
// re-execute unbatched and can fall over in-process there.
func (s *Service) runBatch(b *sched.Batch) {
	snap := b.Topo.(*topology) // set by submitBatched, the only submitter
	done := make(chan struct{})
	job := func(pw *poolWorker) {
		defer close(done)
		ctx, cfg := context.Background(), s.cfg
		cfg.params, cfg.maxRounds = b.Params, b.MaxRounds
		run := func() error {
			return s.runPrepared(ctx, cfg, b.Seed, snap, pw, func(w *core.Walker) error {
				b.Execute(w) // reports its own failure to the members
				return nil
			})
		}
		var err error
		if len(s.cfg.cluster) > 0 {
			err = s.clusterRun(ctx, pw, snap, run)
		} else {
			err = run()
		}
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
// (Theorem 2.8), as one request. It runs on the same group-execution path
// (sched.ExecGroup) that serves coalesced SubmitWalk batches — one
// explicit batch under the caller's key instead of a scheduled one.
func (s *Service) ManyRandomWalks(ctx context.Context, key uint64, sources []NodeID, ell int, opts ...Option) (*ManyResult, error) {
	return serve(ctx, s, &manyKind, key, operands{sources: sources, ell: ell}, opts)
}

// WalkTrace samples an ℓ-step walk from source and then regenerates it
// (Section 2.2, "Regenerating the entire random walk") so every simulated
// node learns its position(s) in the walk, as one request. The returned
// Trace carries per-node positions and first-visit edges — the primitive
// the spanning-tree application builds on — plus the regeneration cost;
// the WalkResult carries the walk itself.
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
