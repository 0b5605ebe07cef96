package distwalk_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"distwalk"
)

// TestWalkLengthBeyondInt32Refused: walk tokens and message codecs carry
// hop counts as int32, so every walk entry point must refuse a length
// above math.MaxInt32 with ErrBadLength before any engine run — not wrap
// it into a short walk, and not hand a worker a λ that panics it.
func TestWalkLengthBeyondInt32Refused(t *testing.T) {
	g, err := distwalk.Torus(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := distwalk.NewService(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	// The deadline only bounds the work a missing check would start.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	const ell = 1 << 32
	bigLambda := distwalk.WithParams(distwalk.Params{LambdaC: 1, Eta: 1, Lambda: 1 << 31})
	cases := []struct {
		name string
		call func() error
	}{
		{"NaiveWalk", func() error { _, err := svc.NaiveWalk(ctx, 1, 5, ell); return err }},
		{"SingleRandomWalk", func() error { _, err := svc.SingleRandomWalk(ctx, 2, 5, ell, bigLambda); return err }},
		{"ManyRandomWalks", func() error { _, err := svc.ManyRandomWalks(ctx, 3, []distwalk.NodeID{5, 9}, ell); return err }},
		{"SubmitWalk", func() error { _, err := svc.SubmitWalk(ctx, 4, 5, ell); return err }},
	}
	for _, tc := range cases {
		if err := tc.call(); !errors.Is(err, distwalk.ErrBadLength) {
			t.Errorf("%s at ℓ = 1<<32: err = %v, want ErrBadLength", tc.name, err)
		}
	}
}

// TestSentinelTaxonomy table-tests the exported sentinel set: every
// sentinel must survive wrapping under errors.Is (the dispatch idiom the
// package documents) and must not match any other sentinel, so callers
// can switch on them safely.
func TestSentinelTaxonomy(t *testing.T) {
	sentinels := []struct {
		name string
		err  error
	}{
		{"ErrBadNode", distwalk.ErrBadNode},
		{"ErrBadLength", distwalk.ErrBadLength},
		{"ErrGraphTooSmall", distwalk.ErrGraphTooSmall},
		{"ErrBadParams", distwalk.ErrBadParams},
		{"ErrBudgetExceeded", distwalk.ErrBudgetExceeded},
		{"ErrDisconnected", distwalk.ErrDisconnected},
		{"ErrRetryExhausted", distwalk.ErrRetryExhausted},
		{"ErrNoMixing", distwalk.ErrNoMixing},
		{"ErrNoCover", distwalk.ErrNoCover},
		{"ErrServiceClosed", distwalk.ErrServiceClosed},
		{"ErrNoRegen", distwalk.ErrNoRegen},
		{"ErrQueueFull", distwalk.ErrQueueFull},
		{"ErrBatchAborted", distwalk.ErrBatchAborted},
		{"ErrNodeCrashed", distwalk.ErrNodeCrashed},
		{"ErrMessageLost", distwalk.ErrMessageLost},
		{"ErrBadFault", distwalk.ErrBadFault},
	}
	for _, tc := range sentinels {
		t.Run(tc.name, func(t *testing.T) {
			wrapped := fmt.Errorf("outer context: %w", fmt.Errorf("inner: %w", tc.err))
			if !errors.Is(wrapped, tc.err) {
				t.Fatalf("%s does not match itself through two wraps", tc.name)
			}
			for _, other := range sentinels {
				if other.name == tc.name {
					continue
				}
				// ErrRetryExhausted deliberately may carry ErrDisconnected
				// via RetryError, but the bare sentinels must not overlap.
				if errors.Is(wrapped, other.err) {
					t.Fatalf("%s unexpectedly matches %s", tc.name, other.name)
				}
			}
		})
	}
}

// TestBatchSentinelCauses pins the documented double-match: a batch
// abort wraps both ErrBatchAborted and its cause, so callers can dispatch
// on either.
func TestBatchSentinelCauses(t *testing.T) {
	err := fmt.Errorf("%w (request 7): %w", distwalk.ErrBatchAborted, distwalk.ErrServiceClosed)
	if !errors.Is(err, distwalk.ErrBatchAborted) || !errors.Is(err, distwalk.ErrServiceClosed) {
		t.Fatal("batch abort error must match both the sentinel and its cause")
	}
}

// TestFaultErrorTypes pins the errors.As contract of the typed fault
// errors: the concrete types carry the loss site and match their
// sentinels through wrapping.
func TestFaultErrorTypes(t *testing.T) {
	crash := fmt.Errorf("request failed: %w", &distwalk.NodeCrashedError{Node: 7, Round: 42})
	if !errors.Is(crash, distwalk.ErrNodeCrashed) {
		t.Fatal("NodeCrashedError does not match ErrNodeCrashed")
	}
	var nce *distwalk.NodeCrashedError
	if !errors.As(crash, &nce) || nce.Node != 7 || nce.Round != 42 {
		t.Fatalf("errors.As lost the crash site: %+v", nce)
	}
	lost := fmt.Errorf("request failed: %w", &distwalk.MessageLostError{From: 1, To: 2, Round: 9})
	if !errors.Is(lost, distwalk.ErrMessageLost) {
		t.Fatal("MessageLostError does not match ErrMessageLost")
	}
	var mle *distwalk.MessageLostError
	if !errors.As(lost, &mle) || mle.From != 1 || mle.To != 2 || mle.Round != 9 {
		t.Fatalf("errors.As lost the loss site: %+v", mle)
	}
	if errors.Is(crash, distwalk.ErrMessageLost) || errors.Is(lost, distwalk.ErrNodeCrashed) {
		t.Fatal("fault sentinels overlap")
	}
}

// TestRetryablePredicate table-tests the documented retry policy.
func TestRetryablePredicate(t *testing.T) {
	for _, tc := range []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"node crashed", fmt.Errorf("x: %w", distwalk.ErrNodeCrashed), true},
		{"message lost", fmt.Errorf("x: %w", distwalk.ErrMessageLost), true},
		{"queue full", fmt.Errorf("x: %w", distwalk.ErrQueueFull), true},
		{"batch aborted", fmt.Errorf("x: %w", distwalk.ErrBatchAborted), true},
		{"batch aborted by shutdown", fmt.Errorf("%w: %w", distwalk.ErrBatchAborted, distwalk.ErrServiceClosed), false},
		{"budget exceeded", fmt.Errorf("x: %w", distwalk.ErrBudgetExceeded), false},
		{"bad node", fmt.Errorf("x: %w", distwalk.ErrBadNode), false},
		{"service closed", fmt.Errorf("x: %w", distwalk.ErrServiceClosed), false},
		{"bad fault plan", fmt.Errorf("x: %w", distwalk.ErrBadFault), false},
	} {
		if got := distwalk.Retryable(tc.err); got != tc.want {
			t.Errorf("Retryable(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
}
