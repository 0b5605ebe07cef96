package congest

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"distwalk/internal/fault"
	"distwalk/internal/graph"
)

func TestRunAbortsOnCanceledContext(t *testing.T) {
	net := pathNet(t, 2, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	net.SetContext(ctx)
	_, err := net.Run(pingpong{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunAbortsMidRunOnDeadline(t *testing.T) {
	net := pathNet(t, 2, 1, WithMaxRounds(1<<30))
	ctx, cancel := context.WithCancel(context.Background())
	net.SetContext(ctx)
	// Cancel from round ~1000 by piggybacking on the protocol: a wrapper
	// would race, so instead cancel after a bounded first run and verify
	// the second run aborts promptly.
	res, err := net.Run(&roundCounter{stopAt: 1000, cancel: cancel})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v (rounds=%d), want context.Canceled", err, res.Rounds)
	}
	if res.Rounds < 1000 || res.Rounds > 1000+ctxCheckMask+1 {
		t.Fatalf("aborted at round %d, want within %d of 1000", res.Rounds, ctxCheckMask+1)
	}
	// The aborted run left a token in flight; the network must be cleanly
	// reusable for an uncancelled run.
	net.SetContext(nil)
	if _, err := net.Run(&burst{from: 0, to: 1, k: 3}); err != nil {
		t.Fatalf("run after abort: %v", err)
	}
}

// roundCounter keeps the pingpong alive and cancels the installed context
// once stopAt rounds have executed.
type roundCounter struct {
	stopAt int
	cancel context.CancelFunc
}

func (p *roundCounter) Init(ctx *Ctx) { pingpong{}.Init(ctx) }

func (p *roundCounter) Step(ctx *Ctx) {
	if ctx.Round() >= p.stopAt {
		p.cancel()
	}
	pingpong{}.Step(ctx)
}

// TestReseedMatchesFreshNetwork: Reseed installs the seed every draw keys
// on and clears the request's first-loss record, and nothing else carries
// over, so a reseeded network runs a lossy workload bit for bit like a
// fresh one.
func TestReseedMatchesFreshNetwork(t *testing.T) {
	g, err := graph.Torus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	plan := WithFaultPlan(&fault.Plan{Seed: 11, DropProb: 0.2})
	fresh := NewNetwork(g, 99, plan)
	pooled := NewNetwork(g, 1, plan) // different seed, then reseeded
	if pooled.SeedMix() == fresh.SeedMix() {
		t.Fatal("seeds 1 and 99 mix to the same SeedMix")
	}
	// Run on the pooled network first, so Reseed must clear a loss.
	if _, err := pooled.Run((&stressProto{seeds: 2, hops: 20}).prepare(g.N())); err != nil {
		t.Fatal(err)
	}
	if pooled.LossError() == nil {
		t.Fatal("a 20 % lossy run lost nothing; the test needs a loss to clear")
	}
	pooled.Reseed(99)
	if pooled.SeedMix() != fresh.SeedMix() {
		t.Fatalf("SeedMix after Reseed(99) = %#x, fresh network's = %#x", pooled.SeedMix(), fresh.SeedMix())
	}
	if err := pooled.LossError(); err != nil {
		t.Fatalf("Reseed kept the loss record: %v", err)
	}
	a, b := (&stressProto{seeds: 2, hops: 20}).prepare(g.N()), (&stressProto{seeds: 2, hops: 20}).prepare(g.N())
	ra, errA := fresh.Run(a)
	rb, errB := pooled.Run(b)
	if ra != rb || !errors.Is(errB, errA) || !reflect.DeepEqual(a.got, b.got) || !reflect.DeepEqual(a.sum, b.sum) {
		t.Fatalf("reseeded run %+v (%v) differs from the fresh network's %+v (%v)", rb, errB, ra, errA)
	}
	if la, lb := fresh.LossError(), pooled.LossError(); (la == nil) != (lb == nil) || la != nil && la.Error() != lb.Error() {
		t.Fatalf("loss records differ: fresh %v, reseeded %v", la, lb)
	}
}

func TestSetMaxRounds(t *testing.T) {
	net := pathNet(t, 2, 1)
	net.SetMaxRounds(10)
	_, err := net.Run(pingpong{})
	if !errors.Is(err, ErrRoundLimit) {
		t.Fatalf("err = %v, want ErrRoundLimit", err)
	}
}
