package distwalk

import (
	"runtime"
	"time"

	"distwalk/internal/core"
	"distwalk/internal/fault"
	"distwalk/internal/sched"
)

// config is the resolved tuning of a Service (and, per request, of one
// call). It layers the pre-existing option structs — core.Params,
// spanning.Options, mixing.Options — under one functional-options surface,
// so the structs remain the single source of truth for semantics.
type config struct {
	params Params
	rst    RSTOptions
	mix    MixingOptions
	// workers is the size of the worker pool (construction-time only).
	workers int
	// shards is the per-worker network shard count (construction-time
	// only): 1 = sequential engine, -1 = auto (GOMAXPROCS at build).
	shards int
	// maxRounds caps the simulated rounds of every engine run within a
	// request (0 = the engine default of 50,000,000).
	maxRounds int
	// batchOn enables the request-coalescing scheduler, tuned by batch
	// (construction-time only; see WithBatching).
	batchOn bool
	batch   sched.Config
	// retries is the number of re-executions after a retryable failure
	// (0 = fail fast).
	retries int
	// fplan is the deterministic fault plan installed on every worker
	// network (construction-time only; see WithFaultPlan).
	fplan *fault.Plan
	// cacheBytes enables the deterministic result cache with this byte
	// capacity (construction-time only; see WithResultCache). 0 = no cache.
	cacheBytes int64
	// cluster is the distwalkd engine address list (construction-time
	// only; see WithCluster). Empty = in-process execution.
	cluster []string
}

func defaultConfig() config {
	return config{
		params:  core.DefaultParams(),
		workers: runtime.GOMAXPROCS(0),
		shards:  1,
	}
}

// Option configures a Service at construction and/or a single request at
// the call site. Options come in two scopes:
//
//   - Per-request options (walk parameterization, budgets, retries)
//     may be passed to NewService — where they set the service default
//     — or to any request method, where they override the default for
//     that request only. Cluster mode has no per-request option: a
//     run's round deadline follows the request context, and a lost
//     engine fails the request (see WithCluster).
//
//   - Construction-only options shape state that exists once per
//     service: the worker pool (WithWorkers), the shard layout
//     (WithShards), cluster membership (WithCluster), the batching
//     scheduler (WithBatching), the result cache (WithResultCache) and
//     the fault plan (WithFaultPlan). Passing one
//     to a request method fails the call with a *OptionScopeError
//     matching ErrOptionScope — there is no per-request meaning it
//     could honor. Each option's doc comment states its scope.
type Option struct {
	name     string
	ctorOnly bool
	// f returns its argument with the option applied. It works on a
	// value, not a *config, so that applying a request's options does
	// not move the request's config to the heap.
	f func(config) config
}

// newOption builds a per-request (and construction) option.
func newOption(name string, f func(config) config) Option {
	return Option{name: name, f: f}
}

// ctorOption builds a construction-only option; applyRequest rejects it.
func ctorOption(name string, f func(config) config) Option {
	return Option{name: name, ctorOnly: true, f: f}
}

// apply applies opts at construction scope: every option is honored.
func (c *config) apply(opts []Option) {
	for _, o := range opts {
		if o.f != nil {
			*c = o.f(*c)
		}
	}
}

// applyRequest applies opts at request scope, rejecting construction-only
// options with a typed *OptionScopeError naming the offender.
func (c *config) applyRequest(opts []Option) error {
	for _, o := range opts {
		if o.ctorOnly {
			return &OptionScopeError{Option: o.name}
		}
		if o.f != nil {
			*c = o.f(*c)
		}
	}
	return nil
}

// --- Walk parameterization (core.Params) ---

// WithParams replaces the whole walk parameterization: start from
// DefaultParams (or DNP09Params for the PODC 2009 baseline) and set the
// fields to change. Per request or service default.
func WithParams(p Params) Option {
	return newOption("WithParams", func(c config) config { c.params = p; return c })
}

// --- Spanning-tree driver (spanning.Options) ---

// WithRSTOptions replaces the whole random-spanning-tree tuning.
// Per request or service default.
func WithRSTOptions(o RSTOptions) Option {
	return newOption("WithRSTOptions", func(c config) config { c.rst = o; return c })
}

// --- Mixing-time estimator (mixing.Options) ---

// WithMixingOptions replaces the whole mixing-estimator tuning.
// Per request or service default.
func WithMixingOptions(o MixingOptions) Option {
	return newOption("WithMixingOptions", func(c config) config { c.mix = o; return c })
}

// --- Service-level knobs ---

// WithWorkers sets the worker-pool size, i.e. how many requests execute
// concurrently (default GOMAXPROCS). Construction-only: the pool is
// built once; per-request use fails with ErrOptionScope.
func WithWorkers(n int) Option {
	return ctorOption("WithWorkers", func(c config) config {
		if n >= 1 {
			c.workers = n
		}
		return c
	})
}

// WithShards partitions every worker's simulated network into s parallel
// shards: each simulated round's per-node processing runs on s goroutines
// (degree-balanced contiguous node ranges) with a deterministic merge at
// the round barrier, so results, walk outputs and simulated cost counters
// stay bit-identical to the sequential engine while wall-clock time for
// large graphs drops with cores. s <= 0 selects auto (GOMAXPROCS at
// construction); s is clamped to the graph size. Construction-only:
// per-request use fails with ErrOptionScope. Shard workers meet at a
// barrier twice per round and spin briefly before they park, so while
// the shard workers in flight fit GOMAXPROCS a crossing is cheap and
// WithShards(2) on two idle cores about halves the latency of a walk
// request from Torus(48,48) up (see README "When it pays"); once they
// outnumber the Ps — s > GOMAXPROCS, or several workers serving sharded
// requests at once — waiters park at once and each crossing costs a
// goroutine switch. Stats().Shards reports BarrierWait with the spin
// time included. Compose with WithWorkers deliberately: workers multiply
// throughput across requests, shards cut the latency of one request, and
// workers*shards goroutines contend for the same cores.
func WithShards(s int) Option {
	return ctorOption("WithShards", func(c config) config {
		c.shards = s
		if s <= 0 {
			c.shards = -1
		}
		return c
	})
}

// WithCluster runs the service's simulated networks in cluster mode: the
// transport layer (edge queues, fault charging, delivery) of shard i runs
// inside the distwalkd process at addrs[i], reached over the
// internal/wire protocol, while the protocol layer stays in this process.
// Execution is bit-identical to WithShards(len(addrs)) — same results,
// same cost counters, same fault census, per request key — the cluster
// identity suite pins exactly that. Each pool worker holds one session
// per engine, so a service runs Workers()×len(addrs) sessions; a lost
// session, or one serving another graph than the job's snapshot, is
// redialed by the worker's next cluster run, and Close tears them all
// down. A request whose engine is lost fails with ErrClusterEngine (and
// ErrEngineLost); it is never re-run in process, so the engines stay the
// only place a cluster service simulates the network. Construction-only:
// per-request use fails with ErrOptionScope. Cluster mode excludes
// WithShards (the in-process shard layout is moot; it is forced to 1)
// and requires len(addrs) <= n.
// NewService fails with ErrClusterConfig on a bad engine list and with a
// wire-typed error (ErrClusterEngine-matching on session failures) when
// an engine is unreachable or rejects the handshake.
func WithCluster(addrs ...string) Option {
	return ctorOption("WithCluster", func(c config) config {
		c.cluster = append([]string(nil), addrs...)
		return c
	})
}

// WithMaxRounds caps the simulated rounds of every engine run performed
// for a request; runs that exceed it fail with ErrBudgetExceeded.
// Per request or service default.
func WithMaxRounds(r int) Option {
	return newOption("WithMaxRounds", func(c config) config {
		if r >= 1 {
			c.maxRounds = r
		}
		return c
	})
}

// WithBatching enables the request-coalescing scheduler: concurrent
// SubmitWalk requests with compatible config coalesce into shared
// MANY-RANDOM-WALKS executions, amortizing the batch cost
// Õ(min(√(kℓD)+k, k+ℓ)) across its k walks. A batch flushes when it
// reaches maxBatch members or maxDelay after its first member arrived,
// whichever comes first; non-positive values keep the defaults (8
// members, 2ms). Batched results are deterministic per batch composition
// — see internal/sched for the contract; the synchronous entry points
// keep their per-key determinism regardless. Construction-only:
// per-request use fails with ErrOptionScope.
func WithBatching(maxBatch int, maxDelay time.Duration) Option {
	return ctorOption("WithBatching", func(c config) config {
		c.batchOn = true
		if maxBatch >= 1 {
			c.batch.MaxBatch = maxBatch
		}
		if maxDelay > 0 {
			c.batch.MaxDelay = maxDelay
		}
		return c
	})
}

// WithResultCache equips the service with the deterministic result cache
// (internal/cache): a sharded, byte-accounted LRU over completed request
// results, keyed by a canonical digest of every result-determining input.
// Because each request is a pure function of (topology generation, service
// seed, request key, parameterization, budgets), a hit is bit-identical
// to a fresh execution — cost counters included — and entries never
// expire; invalidation is any ApplyMutations that edits the graph.
// Concurrent identical requests coalesce: one executes, the rest attach
// to it (ServiceStats.Cache.CoalescedWaiters), including async Submit
// handles. bytes is the total capacity; values below 1 are ignored (no
// cache). Construction-only: per-request use fails with ErrOptionScope.
func WithResultCache(bytes int64) Option {
	return ctorOption("WithResultCache", func(c config) config {
		if bytes >= 1 {
			c.cacheBytes = bytes
		}
		return c
	})
}

// WithRetry sets how many times a failed request is re-executed before
// its error is returned (default 0: fail fast). Only retryable failures
// re-execute — see Retryable: typed fault errors (ErrNodeCrashed,
// ErrMessageLost) and aborted batches (ErrBatchAborted). A SubmitWalk
// rejected with ErrQueueFull is not re-admitted: it fails at submit
// time, counted once and not as a retry. Each retry runs with a fresh
// seed derived from (service seed, request key, attempt number), so a
// walk that died in a crashed or lossy region re-randomizes
// deterministically: the result of (key, attempt) is reproducible, and
// attempt 0 is bit-identical to a service without retries. Every retry
// stays on the topology snapshot the request admitted under, so a
// retried request straddling an ApplyMutations still returns what a
// never-mutated service would. Retries run back to back — the "network"
// is simulated, so there is nothing to wait for — and the request
// context is checked between attempts. Applies per request or as a
// service default.
func WithRetry(max int) Option {
	return newOption("WithRetry", func(c config) config {
		if max >= 0 {
			c.retries = max
		}
		return c
	})
}

// WithFaultPlan installs a deterministic fault plan on every worker's
// simulated network: crash-stop failures, churn windows, lossy and slow
// links, all derived from the plan's seed (see FaultPlan and
// RandomFaultPlan). Same (plan, graph, request key) — same faults, same
// result, at any shard count. Construction-only: per-request use fails
// with ErrOptionScope. NewService fails with ErrBadFault if the plan is
// invalid for the graph, and ApplyMutations rejects mutations that would
// invalidate the installed plan (removing a faulted link).
func WithFaultPlan(p *FaultPlan) Option {
	return ctorOption("WithFaultPlan", func(c config) config { c.fplan = p; return c })
}
