package core

import (
	"errors"
	"testing"

	"distwalk/internal/congest"
	"distwalk/internal/fault"
	"distwalk/internal/graph"
)

// Failure injection (the paper's Section 5 lists robustness as future
// work): the Las Vegas drivers *detect* token loss — they error out
// rather than returning a sample from the wrong distribution — and the
// faultize boundary re-labels the detection error with the typed
// ErrNodeCrashed carrying which node died.

func TestNaiveWalkDetectsTokenLoss(t *testing.T) {
	// A cycle forces every long walk through node 2; crash it mid-run.
	g, err := graph.Cycle(8)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWalker(g, 3, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild the walker's network with a crash injected.
	w.net = congest.NewNetwork(g, 3, congest.WithFaultPlan(&fault.Plan{Crashes: []fault.Crash{{Node: 2, Round: 0}}}))
	_, err = w.SingleRandomWalk(0, 3)
	if err == nil {
		// ℓ=3 uses the naive path; with node 2 dead the tree build or the
		// token must fail.
		t.Fatal("walk over a crashed node reported success")
	}
	if !errors.Is(err, congest.ErrNodeCrashed) {
		t.Fatalf("error %v does not wrap ErrNodeCrashed", err)
	}
	var nce *congest.NodeCrashedError
	if !errors.As(err, &nce) || nce.Node != 2 {
		t.Fatalf("error %v does not identify crashed node 2", err)
	}
}

func TestStitchedWalkDetectsCrashDuringPhase2(t *testing.T) {
	g, err := graph.Torus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWalker(g, 5, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	// Crash a node well after the BFS/Phase 1 bursts so the failure lands
	// mid-stitching; on a torus every node is on some walk's path with
	// high probability, and the convergecast through it must stall.
	w.net = congest.NewNetwork(g, 5, congest.WithFaultPlan(&fault.Plan{Crashes: []fault.Crash{{Node: 7, Round: 40}}}), congest.WithMaxRounds(20000))
	_, err = w.SingleRandomWalk(0, 2000)
	if err == nil {
		t.Fatal("stitched walk with a mid-run crash reported success")
	}
	// The stall burns the round budget, but the typed crash error — not
	// ErrBudgetExceeded — must surface: the budget overrun is a symptom.
	if !errors.Is(err, congest.ErrNodeCrashed) {
		t.Fatalf("error %v does not wrap ErrNodeCrashed", err)
	}
	if errors.Is(err, congest.ErrRoundLimit) {
		t.Fatalf("error %v still matches ErrRoundLimit; the fault should re-label it", err)
	}
}
