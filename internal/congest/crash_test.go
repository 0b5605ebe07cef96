package congest

import (
	"errors"
	"testing"

	"distwalk/internal/fault"
	"distwalk/internal/graph"
)

func TestCrashDropsMessages(t *testing.T) {
	g, err := graph.Path(2)
	if err != nil {
		t.Fatal(err)
	}
	// Node 1 crashes at round 3: of the 5 serialized messages, rounds 1-2
	// deliver and rounds 3-5 drop.
	net := NewNetwork(g, 1, WithFaultPlan(&fault.Plan{Crashes: []fault.Crash{{Node: 1, Round: 3}}}))
	p := &burst{from: 0, to: 1, k: 5}
	res, err := net.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if p.got != 2 {
		t.Fatalf("delivered %d, want 2", p.got)
	}
	if res.Faults.Dropped != 3 {
		t.Fatalf("dropped %d, want 3", res.Faults.Dropped)
	}
	if res.Faults.Crashed != 1 {
		t.Fatalf("crashed census %d, want 1", res.Faults.Crashed)
	}
	var nce *NodeCrashedError
	if err := net.LossError(); !errors.As(err, &nce) || nce.Node != 1 {
		t.Fatalf("LossError = %v, want NodeCrashedError for node 1", err)
	}
}

func TestCrashedNodeDoesNotStep(t *testing.T) {
	g, err := graph.Path(2)
	if err != nil {
		t.Fatal(err)
	}
	net := NewNetwork(g, 1, WithFaultPlan(&fault.Plan{Crashes: []fault.Crash{{Node: 0, Round: 2}}}))
	p := &selfTicker{quota: 100}
	res, err := net.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	// SetActive in Init; steps at rounds 1 only (crashed from round 2),
	// and the run must still reach quiescence.
	if p.steps != 1 {
		t.Fatalf("crashed node stepped %d times, want 1", p.steps)
	}
	if res.Rounds > 3 {
		t.Fatalf("run did not quiesce promptly after crash: %d rounds", res.Rounds)
	}
}

func TestCrashAtRoundZeroSilencesNode(t *testing.T) {
	g, err := graph.Path(3)
	if err != nil {
		t.Fatal(err)
	}
	// Relay 0→1→2 with node 1 dead from the start: nothing reaches 2.
	net := NewNetwork(g, 1, WithFaultPlan(&fault.Plan{Crashes: []fault.Crash{{Node: 1, Round: 0}}}))
	p := &relayBurst{k: 4}
	res, err := net.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if p.got != 0 {
		t.Fatalf("delivered %d through a dead relay", p.got)
	}
	if res.Faults.Dropped != 4 {
		t.Fatalf("dropped %d, want 4", res.Faults.Dropped)
	}
}

// TestCrashInvalidArgsRejected pins the typed-error discipline for fault
// configuration: an out-of-range plan crash is recorded on the network
// and fails every Run with ErrBadFault instead of being silently
// ignored (it used to be — a plan that never fires is worse than one
// that fails loudly).
func TestCrashInvalidArgsRejected(t *testing.T) {
	g, _ := graph.Path(2)
	for name, opt := range map[string]Option{
		"negative node":  WithFaultPlan(&fault.Plan{Crashes: []fault.Crash{{Node: -1, Round: 5}}}),
		"node too large": WithFaultPlan(&fault.Plan{Crashes: []fault.Crash{{Node: 99, Round: 5}}}),
		"negative round": WithFaultPlan(&fault.Plan{Crashes: []fault.Crash{{Node: 0, Round: -1}}}),
	} {
		t.Run(name, func(t *testing.T) {
			net := NewNetwork(g, 1, opt)
			_, err := net.Run(&burst{from: 0, to: 1, k: 1})
			if !errors.Is(err, ErrBadFault) {
				t.Fatalf("Run = %v, want ErrBadFault", err)
			}
		})
	}
	// A valid spec alongside an invalid one still fails: the first
	// configuration error wins and is sticky.
	net := NewNetwork(g, 1,
		WithFaultPlan(&fault.Plan{Crashes: []fault.Crash{{Node: 1, Round: 3}}}),
		WithFaultPlan(&fault.Plan{Crashes: []fault.Crash{{Node: 99, Round: 5}}}))
	if _, err := net.Run(&burst{from: 0, to: 1, k: 1}); !errors.Is(err, ErrBadFault) {
		t.Fatalf("Run = %v, want ErrBadFault", err)
	}
}

func TestBFSTreeDetectsCrashedNode(t *testing.T) {
	// A BFS build over a network with a dead node must fail loudly (the
	// node is unreachable), not hang or return a partial tree.
	g, err := graph.Torus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	net := NewNetwork(g, 1, WithFaultPlan(&fault.Plan{Crashes: []fault.Crash{{Node: 5, Round: 0}}}))
	if _, _, err := BuildBFSTree(net, 0); err == nil {
		t.Fatal("BFS over a crashed node reported success")
	}
}
