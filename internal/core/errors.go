package core

import (
	"errors"
	"fmt"
	"math"
)

// Sentinel errors of the walk layer. Every failure returned by Walker
// methods wraps one of these (or a graph/congest sentinel), so callers can
// dispatch with errors.Is instead of string matching.
var (
	// ErrBadNode reports a node ID outside [0, n).
	ErrBadNode = errors.New("core: node out of range")
	// ErrBadLength reports a walk length outside [0, math.MaxInt32]: the
	// walk tokens and message codecs carry hop counts as int32.
	ErrBadLength = errors.New("core: walk length out of range")
	// ErrGraphTooSmall reports an operation that needs at least two nodes
	// (a walk cannot leave a single-node graph).
	ErrGraphTooSmall = errors.New("core: graph too small")
	// ErrBadParams reports an invalid Params value.
	ErrBadParams = errors.New("core: invalid params")
	// ErrConcurrentUse reports two overlapping calls into one Walker. A
	// Walker is deliberately single-threaded (its per-node netState is one
	// shared simulation); the guard turns silent state corruption into a
	// clean error. Use distwalk.Service for concurrency.
	ErrConcurrentUse = errors.New("core: walker is not safe for concurrent use")
	// ErrNoRegen reports a regeneration request the hop trail cannot
	// serve: Metropolis-Hastings walks leave no trail for stay steps, and
	// a walker keeps no trail at all unless KeepTrail asked for one before
	// the first walk since its last Reset.
	ErrNoRegen = errors.New("core: walk cannot be regenerated")
)

// CheckLength is the one walk-length check: ell must be non-negative and
// fit the 32-bit hop counters the protocols' messages carry, or it fails
// with ErrBadLength instead of wrapping.
func CheckLength(ell int) error {
	if ell < 0 || ell > math.MaxInt32 {
		return fmt.Errorf("%w: %d not in [0,%d]", ErrBadLength, ell, math.MaxInt32)
	}
	return nil
}
