package distwalk

import (
	"errors"

	"distwalk/internal/congest"
	"distwalk/internal/core"
	"distwalk/internal/graph"
	"distwalk/internal/mixing"
	"distwalk/internal/sched"
	"distwalk/internal/spanning"
	"distwalk/internal/wire"
)

// Exported failure taxonomy. Every error returned through the public
// surface wraps one of these sentinels, so callers dispatch with
// errors.Is/errors.As instead of string matching:
//
//	_, err := svc.SingleRandomWalk(ctx, key, src, ell)
//	switch {
//	case errors.Is(err, distwalk.ErrBadNode):         // caller bug
//	case errors.Is(err, distwalk.ErrBudgetExceeded):  // raise WithMaxRounds
//	case errors.Is(err, context.DeadlineExceeded):    // request timed out
//	}
//
// Context cancellation surfaces as the standard context.Canceled /
// context.DeadlineExceeded (wrapped, errors.Is-able); there is no separate
// sentinel for it.
var (
	// ErrBadNode reports a node ID outside [0, n).
	ErrBadNode = core.ErrBadNode
	// ErrBadLength reports a walk length outside [0, math.MaxInt32] (hop
	// counts travel as 32-bit message fields).
	ErrBadLength = core.ErrBadLength
	// ErrGraphTooSmall reports an operation that needs more nodes than the
	// graph has (walks need n >= 2).
	ErrGraphTooSmall = core.ErrGraphTooSmall
	// ErrBadParams reports an invalid parameterization.
	ErrBadParams = core.ErrBadParams
	// ErrBudgetExceeded reports a simulated run that exceeded its round
	// budget (see WithMaxRounds).
	ErrBudgetExceeded = congest.ErrRoundLimit
	// ErrDisconnected reports a disconnected input graph.
	ErrDisconnected = graph.ErrDisconnected
	// ErrRetryExhausted reports a randomized graph generator that ran out
	// of attempts; errors.As against *GenRetryError exposes the budget.
	ErrRetryExhausted = graph.ErrRetryExhausted
	// ErrNoMixing reports that the mixing estimator found no passing walk
	// length (bipartite graphs never mix).
	ErrNoMixing = mixing.ErrNoMixing
	// ErrNoCover reports that the spanning-tree driver found no covering
	// walk within its length budget.
	ErrNoCover = spanning.ErrNoCover
	// ErrServiceClosed reports a request submitted to a closed Service.
	ErrServiceClosed = errors.New("distwalk: service closed")
	// ErrNoRegen reports a walk that cannot be regenerated: a walk the
	// replay cannot reproduce (another seed or Reset epoch, or malformed
	// segments) fails with it instead of returning a wrong path.
	ErrNoRegen = core.ErrNoRegen
	// ErrQueueFull reports a SubmitWalk rejected because the batching
	// scheduler's admission queue for that request's config is full —
	// backpressure, not failure; shed load or submit again later. It is
	// Retryable, but WithRetry does not re-admit: the queue drains only
	// as batches flush, so the caller's own loop picks the wait. A queue
	// holds 4x the batch size.
	ErrQueueFull = sched.ErrQueueFull
	// ErrBatchAborted reports a submitted walk whose batch never
	// executed: the shared run failed as a whole, or the service closed
	// while the request was pending. The wrapped cause is also
	// errors.Is-able. Under WithRetry a member of a failed batch re-runs
	// alone on the snapshot it admitted under.
	ErrBatchAborted = sched.ErrBatchAborted
	// ErrNodeCrashed reports a request that lost a protocol token to a
	// crashed (or churned-down) node; errors.As against *NodeCrashedError
	// exposes which node died and the simulated round of the loss. A walk
	// through a dead node fails fast with this sentinel — not
	// ErrBudgetExceeded — and is retryable (see WithRetry).
	ErrNodeCrashed = congest.ErrNodeCrashed
	// ErrMessageLost reports a request that lost a protocol token to a
	// lossy link; errors.As against *MessageLostError exposes the link and
	// round. Retryable.
	ErrMessageLost = congest.ErrMessageLost
	// ErrBadFault reports an invalid fault specification: a WithFaultPlan
	// plan naming nodes or links outside the graph or out-of-range
	// probabilities. Surfaced by NewService and by every engine run on a
	// misconfigured network.
	ErrBadFault = congest.ErrBadFault
	// ErrClusterConfig reports a WithCluster engine list the shard planner
	// or the engine group rejected (more engines than nodes, bounds that
	// do not cover the graph, unsupported per-edge capacities).
	ErrClusterConfig = congest.ErrShardPlan
	// ErrClusterEngine reports a remote shard engine failing mid-request
	// in cluster mode (connection lost, engine crashed, protocol
	// violation). The wrapped transport cause is also errors.Is-able, e.g.
	// ErrClusterRejected for typed server rejections.
	ErrClusterEngine = congest.ErrRemoteShard
	// ErrClusterRejected reports a distwalkd server refusing a session or
	// request with a typed wire error: graph digest not matching the
	// shipped edges, shard index out of range, draining server, protocol
	// violation. Surfaced by
	// NewService (handshake) and mid-request (wrapped in
	// ErrClusterEngine); errors.As against *wire.RemoteError exposes the
	// code — but the wire package is internal, so match this sentinel.
	ErrClusterRejected = wire.ErrEngine
	// ErrEngineLost reports a cluster engine session that died in use —
	// connection reset, SIGKILL'd daemon, protocol desync — or an engine
	// the redial could not reach. Always wrapped in ErrClusterEngine; the
	// request fails, and the worker's next request redials the engine.
	ErrEngineLost = wire.ErrEngineLost
	// ErrEngineTimeout reports a cluster engine that failed to answer
	// within the per-exchange deadline — the request context's remaining
	// budget, 30s without one — or within the redial's handshake bound:
	// hung process, network partition. Also matches ErrEngineLost.
	ErrEngineTimeout = wire.ErrEngineTimeout
	// ErrBadMutation reports an invalid ApplyMutations batch: endpoints
	// out of range, a self-loop, a negative or non-finite weight, a
	// removal naming a missing edge, or an edit that would isolate a node.
	// The batch is rejected whole; the service's topology is unchanged.
	ErrBadMutation = graph.ErrEdit
)

// OptionScopeError reports a construction-only option passed to a
// per-request call; Option names the offender. Matches ErrOptionScope
// under errors.Is.
type OptionScopeError struct {
	Option string
}

func (e *OptionScopeError) Error() string {
	return "distwalk: option " + e.Option + " is construction-only (pass it to NewService)"
}

// Unwrap makes the error match ErrOptionScope.
func (e *OptionScopeError) Unwrap() error { return ErrOptionScope }

// ErrOptionScope reports a construction-only option (pool and cluster
// shape, batching, cache, fault plan) passed to a per-request call.
// Before the mutation API these were silently ignored per request; they
// are now rejected so a caller cannot believe a request ran with e.g. a
// different shard count than it did.
var ErrOptionScope = errors.New("distwalk: construction-only option in per-request call")

// NodeCrashedError carries which node was down and the simulated round at
// which the first token was lost to it; matches ErrNodeCrashed under
// errors.Is.
type NodeCrashedError = congest.NodeCrashedError

// MessageLostError carries the lossy link (From -> To) and the simulated
// round of the first loss; matches ErrMessageLost under errors.Is.
type MessageLostError = congest.MessageLostError

// Retryable reports whether err is worth re-executing with a fresh
// attempt seed: typed fault losses (ErrNodeCrashed, ErrMessageLost) and
// transient scheduling rejections (ErrQueueFull, ErrBatchAborted — unless
// the abort was the service closing). A retry stays on the topology
// snapshot the request admitted under. WithRetry uses exactly this
// predicate; callers running their own retry loops should too.
func Retryable(err error) bool {
	if errors.Is(err, ErrServiceClosed) {
		return false
	}
	return errors.Is(err, ErrNodeCrashed) || errors.Is(err, ErrMessageLost) ||
		errors.Is(err, ErrQueueFull) || errors.Is(err, ErrBatchAborted)
}

// GenRetryError is the typed generator retry-exhaustion error; it carries
// the generator name and attempt count, and matches ErrRetryExhausted
// (plus ErrDisconnected when connectivity was the failing check) under
// errors.Is.
type GenRetryError = graph.RetryError
