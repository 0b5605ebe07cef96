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
	// ErrNoRegen reports a walk that regeneration cannot replay: a walk
	// is replayed only by the walker that ran it, in the same Reset epoch
	// and under the same seed. The replay recomputes every hop from (seed, walk ID,
	// step), so a walk it cannot reproduce shows as segments that do not
	// meet and fails with this error instead of returning a wrong path.
	// So does malformed input: no walks, a nil walk, or segments that do
	// not sum to the walk's length or do not tile it.
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
