package core

import (
	"context"
	"errors"
	"fmt"

	"distwalk/internal/congest"
)

// Fault awareness: the engine records the first message lost to an
// injected fault (crash-stop, churn window, lossy link) per request. A
// protocol that loses a token to a fault mostly does not return a wrong
// sample — the Las Vegas protocols detect the inconsistency (missing
// coupon, unfinished tail, unreachable BFS node, stalled convergecast)
// and fail. Phase 1 is the exception: a short-walk token lost there takes
// its coupon with it, nothing misses it, and stitching draws from the
// coupons that survived (refilling as usual), so the request can succeed
// with LossError set and a sample drawn only from short walks that
// dodged the fault. ROADMAP lists the reproduction.
// faultize converts those detection errors into the typed fault error at
// every Walker entry point, so callers (and the Service retry policy)
// dispatch on ErrNodeCrashed/ErrMessageLost instead of parsing protocol
// internals, and a walk through a dead node fails fast as "node crashed"
// rather than surfacing as a round-budget overrun.

// faultize rewrites err as the request's typed fault error when the
// walker's network recorded a token loss since its last reseed. Caller
// bugs (validation sentinels), context cancellation and already-typed
// fault errors pass through untouched; the original detection error is
// kept as text so nothing is hidden, but only the fault sentinel is
// errors.Is-able — in particular a budget overrun caused by a loss no
// longer matches ErrRoundLimit.
func (w *Walker) faultize(err error) error {
	if err == nil {
		return nil
	}
	le := w.net.LossError()
	if le == nil {
		return err
	}
	switch {
	case errors.Is(err, congest.ErrNodeCrashed), errors.Is(err, congest.ErrMessageLost),
		errors.Is(err, congest.ErrBadFault):
		return err
	case errors.Is(err, ErrBadNode), errors.Is(err, ErrBadLength), errors.Is(err, ErrBadParams),
		errors.Is(err, ErrGraphTooSmall), errors.Is(err, ErrConcurrentUse), errors.Is(err, ErrNoRegen):
		return err
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return err
	}
	return fmt.Errorf("%w; request failed: %v", le, err)
}

// Faultize converts err through the walker network's recorded token loss
// (see faultize). Exported for drivers that run congest primitives
// directly on the walker's network — the spanning-tree and mixing
// applications broadcast/convergecast outside the Walker methods, so the
// Service applies this at its own boundary.
func Faultize(w *Walker, err error) error { return w.faultize(err) }
