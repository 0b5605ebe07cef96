package congest

import (
	"context"
	"errors"
	"testing"

	"distwalk/internal/fault"
	"distwalk/internal/graph"
)

// --- Bit-identity: in-process vs remote (loopback) cluster execution ---

// runStressRemote mirrors runStress on a cluster client: the network's
// transport runs in a LoopbackShard group of s engines, built over the
// same plan a cluster of s distwalkd processes would serve.
func runStressRemote(t *testing.T, g *graph.G, s, edgeCap int, plan *fault.Plan, opts ...Option) (Result, *stressProto, error) {
	t.Helper()
	net := NewNetwork(g, 42, opts...)
	if plan != nil {
		// The client keeps the compiled plan too: crashed-node checks on
		// the awake list and the Crashed census stay client-side.
		if err := net.SetFaultPlan(plan); err != nil {
			t.Fatal(err)
		}
	}
	group, bounds, err := NewLoopbackGroup(g, s, edgeCap, plan)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.ConnectRemote(group, bounds); err != nil {
		t.Fatal(err)
	}
	if net.Remote() != len(group) {
		t.Fatalf("Remote() = %d, want %d", net.Remote(), len(group))
	}
	p := (&stressProto{seeds: 3, hops: 40, awakeRounds: 12}).prepare(g.N())
	res, err := net.Run(p)
	return res, p, err
}

func TestRemoteIdentityEngine(t *testing.T) {
	for name, g := range stressGraphs(t) {
		t.Run(name, func(t *testing.T) {
			seqRes, seqP, err := runStress(t, g, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, engines := range []int{1, 2, 3, 4, 8} {
				res, p, err := runStressRemote(t, g, engines, 1, nil)
				if err != nil {
					t.Fatalf("engines=%d: %v", engines, err)
				}
				if res != seqRes {
					t.Fatalf("engines=%d: Result %+v != sequential %+v", engines, res, seqRes)
				}
				for v := range seqP.got {
					if p.got[v] != seqP.got[v] || p.sum[v] != seqP.sum[v] {
						t.Fatalf("engines=%d node %d: got %d/sum %d, sequential %d/%d",
							engines, v, p.got[v], p.sum[v], seqP.got[v], seqP.sum[v])
					}
				}
			}
		})
	}
}

func TestRemoteIdentityEdgeCapAndBudget(t *testing.T) {
	g, err := graph.Torus(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("cap3", func(t *testing.T) {
		seqRes, seqP, err := runStress(t, g, 1, WithEdgeCap(3))
		if err != nil {
			t.Fatal(err)
		}
		for _, engines := range []int{2, 4} {
			res, p, err := runStressRemote(t, g, engines, 3, nil)
			if err != nil {
				t.Fatalf("engines=%d: %v", engines, err)
			}
			if res != seqRes {
				t.Fatalf("engines=%d: Result %+v != sequential %+v", engines, res, seqRes)
			}
			for v := range seqP.got {
				if p.got[v] != seqP.got[v] || p.sum[v] != seqP.sum[v] {
					t.Fatalf("engines=%d node %d diverged", engines, v)
				}
			}
		}
	})
	t.Run("budget", func(t *testing.T) {
		seqRes, _, seqErr := runStress(t, g, 1, WithMaxRounds(9))
		if !errors.Is(seqErr, ErrRoundLimit) {
			t.Fatalf("sequential err = %v, want round limit", seqErr)
		}
		res, _, err := runStressRemote(t, g, 4, 1, nil, WithMaxRounds(9))
		if !errors.Is(err, ErrRoundLimit) {
			t.Fatalf("cluster err = %v, want round limit", err)
		}
		if res != seqRes {
			t.Fatalf("cluster Result %+v != sequential %+v", res, seqRes)
		}
	})
}

// TestRemoteIdentityFaultPlan drives the full fault surface — scripted
// crashes, churn windows, global and per-link loss, link delays — through
// the loopback cluster and requires counters, per-node state and the
// typed first-loss record to be bit-identical to the sequential engine.
func TestRemoteIdentityFaultPlan(t *testing.T) {
	g, err := graph.Torus(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	plan := &fault.Plan{
		Seed:     77,
		DropProb: 0.01,
		Crashes:  []fault.Crash{{Node: 11, Round: 6}},
		Churn:    []fault.Churn{{Node: 30, From: 3, To: 9}},
		LinkDrops: []fault.LinkDrop{
			{From: 1, To: 2, Prob: 0.5},
		},
		LinkDelays: []fault.LinkDelay{
			{From: 9, To: 10, Rounds: 3},
			{From: 17, To: 18, Rounds: 2},
		},
	}
	seqNet := NewNetwork(g, 42)
	if err := seqNet.SetFaultPlan(plan); err != nil {
		t.Fatal(err)
	}
	seqP := (&stressProto{seeds: 3, hops: 40, awakeRounds: 12}).prepare(g.N())
	seqRes, seqErr := seqNet.Run(seqP)
	if seqErr != nil {
		t.Fatal(seqErr)
	}
	seqLoss := seqNet.LossError()
	if seqLoss == nil {
		t.Fatal("plan produced no loss; the identity check needs one")
	}
	for _, engines := range []int{2, 4} {
		net := NewNetwork(g, 42)
		if err := net.SetFaultPlan(plan); err != nil {
			t.Fatal(err)
		}
		group, bounds, err := NewLoopbackGroup(g, engines, 1, plan)
		if err != nil {
			t.Fatal(err)
		}
		if err := net.ConnectRemote(group, bounds); err != nil {
			t.Fatal(err)
		}
		p := (&stressProto{seeds: 3, hops: 40, awakeRounds: 12}).prepare(g.N())
		res, err := net.Run(p)
		if err != nil {
			t.Fatalf("engines=%d: %v", engines, err)
		}
		if res != seqRes {
			t.Fatalf("engines=%d: Result %+v != sequential %+v", engines, res, seqRes)
		}
		for v := range seqP.got {
			if p.got[v] != seqP.got[v] || p.sum[v] != seqP.sum[v] {
				t.Fatalf("engines=%d node %d diverged", engines, v)
			}
		}
		loss := net.LossError()
		if loss == nil || loss.Error() != seqLoss.Error() {
			t.Fatalf("engines=%d: LossError %v != sequential %v", engines, loss, seqLoss)
		}
	}
}

// TestShardIdentityDeepQueues covers what a one-message-per-edge run never
// reaches in the per-edge FIFO chains: a pop of k > 1 that leaves a
// remainder (WithEdgeCap(3) under queues deeper than 3), the least-loaded
// pick among parallel edges (it reads the chain's size) and a delayed
// link's transit start (size == 1), at S ∈ {1, 2, 4} in-process and over
// loopback engines — every digest equal to the sequential one.
func TestShardIdentityDeepQueues(t *testing.T) {
	torus, err := graph.Torus(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	g, err := torus.ApplyEdits(nil, []graph.EdgeEdit{{U: 0, V: 1}, {U: 0, V: 1}, {U: 7, V: 8}, {U: 14, V: 20}})
	if err != nil {
		t.Fatal(err)
	}
	plan := &fault.Plan{Seed: 5, LinkDelays: []fault.LinkDelay{
		{From: 0, To: 1, Rounds: 2}, // all three parallel edges 0→1
		{From: 8, To: 7, Rounds: 3},
		{From: 3, To: 4, Rounds: 1},
	}}
	run := func(shards, engines int) (Result, *stressProto) {
		t.Helper()
		net := transport{shards, engines}.build(t, g, 3, plan)
		p := (&stressProto{seeds: 12, hops: 30, awakeRounds: 12}).prepare(g.N())
		res, err := net.Run(p)
		if err != nil {
			t.Fatalf("shards=%d engines=%d: %v", shards, engines, err)
		}
		return res, p
	}
	seqRes, seqP := run(1, 0)
	if seqRes.MaxQueue <= 3 || seqRes.Faults.Delayed == 0 {
		t.Fatalf("sequential run reached depth %d with %d delayed edge-rounds; the check needs depth > 3 and a delay",
			seqRes.MaxQueue, seqRes.Faults.Delayed)
	}
	for _, tc := range [][2]int{{2, 0}, {4, 0}, {1, 1}, {1, 2}, {1, 4}} {
		res, p := run(tc[0], tc[1])
		if res != seqRes {
			t.Fatalf("shards=%d engines=%d: Result %+v != sequential %+v", tc[0], tc[1], res, seqRes)
		}
		for v := range seqP.got {
			if p.got[v] != seqP.got[v] || p.sum[v] != seqP.sum[v] {
				t.Fatalf("shards=%d engines=%d node %d: got %d/sum %d, sequential %d/%d",
					tc[0], tc[1], v, p.got[v], p.sum[v], seqP.got[v], seqP.sum[v])
			}
		}
	}
}

// TestRemoteReuse runs the same client+engine group through several runs
// and a Reseed, pinning that engines reset cleanly per run and the
// first-loss record stays request-scoped.
func TestRemoteReuse(t *testing.T) {
	g, err := graph.Torus(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	seqNet := NewNetwork(g, 42)
	cluNet := NewNetwork(g, 42)
	group, bounds, err := NewLoopbackGroup(g, 3, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := cluNet.ConnectRemote(group, bounds); err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 3; run++ {
		seqP := (&stressProto{seeds: 2, hops: 15, awakeRounds: 4}).prepare(g.N())
		cluP := (&stressProto{seeds: 2, hops: 15, awakeRounds: 4}).prepare(g.N())
		seqRes, err1 := seqNet.Run(seqP)
		cluRes, err2 := cluNet.Run(cluP)
		if err1 != nil || err2 != nil {
			t.Fatalf("run %d: errs %v / %v", run, err1, err2)
		}
		if seqRes != cluRes {
			t.Fatalf("run %d: Result %+v != %+v", run, cluRes, seqRes)
		}
	}
	seqNet.Reseed(7)
	cluNet.Reseed(7)
	seqP := (&stressProto{seeds: 2, hops: 15, awakeRounds: 4}).prepare(g.N())
	cluP := (&stressProto{seeds: 2, hops: 15, awakeRounds: 4}).prepare(g.N())
	seqRes, _ := seqNet.Run(seqP)
	cluRes, _ := cluNet.Run(cluP)
	if seqRes != cluRes {
		t.Fatalf("post-Reseed: Result %+v != %+v", cluRes, seqRes)
	}
	for v := range seqP.got {
		if cluP.got[v] != seqP.got[v] || cluP.sum[v] != seqP.sum[v] {
			t.Fatalf("post-Reseed node %d diverged", v)
		}
	}
}

func TestRemoteContextCancel(t *testing.T) {
	g, err := graph.Torus(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	net := NewNetwork(g, 42)
	group, bounds, err := NewLoopbackGroup(g, 2, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.ConnectRemote(group, bounds); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	net.SetContext(ctx)
	p := (&stressProto{seeds: 2, hops: 15, awakeRounds: 4}).prepare(g.N())
	if _, err := net.Run(p); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// A fresh run on the same group must recover: RunBegin drops the
	// aborted run's leftovers on every engine.
	net.SetContext(context.Background())
	seq := NewNetwork(g, 42)
	seqP := (&stressProto{seeds: 2, hops: 15, awakeRounds: 4}).prepare(g.N())
	seqRes, _ := seq.Run(seqP)
	p2 := (&stressProto{seeds: 2, hops: 15, awakeRounds: 4}).prepare(g.N())
	res, err := net.Run(p2)
	if err != nil {
		t.Fatal(err)
	}
	if res != seqRes {
		t.Fatalf("post-abort Result %+v != sequential %+v", res, seqRes)
	}
}

func TestRemoteHalter(t *testing.T) {
	g, err := graph.Cycle(16)
	if err != nil {
		t.Fatal(err)
	}
	for _, engines := range []int{1, 3} {
		seq := NewNetwork(g, 42)
		hp := &haltAt{target: 9}
		seqRes, err1 := seq.Run(hp)
		net := NewNetwork(g, 42)
		group, bounds, gerr := NewLoopbackGroup(g, engines, 1, nil)
		if gerr != nil {
			t.Fatal(gerr)
		}
		if err := net.ConnectRemote(group, bounds); err != nil {
			t.Fatal(err)
		}
		hp2 := &haltAt{target: 9}
		res, err2 := net.Run(hp2)
		if err1 != nil || err2 != nil {
			t.Fatalf("errs %v / %v", err1, err2)
		}
		if res != seqRes {
			t.Fatalf("engines=%d: Result %+v != sequential %+v", engines, res, seqRes)
		}
	}
}

// --- Validation and protocol-violation paths ---

func TestConnectRemoteValidation(t *testing.T) {
	g, err := graph.Torus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	group, bounds, err := NewLoopbackGroup(g, 2, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("bounds-mismatch", func(t *testing.T) {
		net := NewNetwork(g, 1)
		if err := net.ConnectRemote(group, []int32{0, int32(g.N())}); !errors.Is(err, ErrShardPlan) {
			t.Fatalf("err = %v, want ErrShardPlan", err)
		}
	})
	t.Run("cap-func", func(t *testing.T) {
		net := NewNetwork(g, 1, WithEdgeCapFunc(func(from, to graph.NodeID) int { return 2 }))
		if err := net.ConnectRemote(group, bounds); !errors.Is(err, ErrShardPlan) {
			t.Fatalf("err = %v, want ErrShardPlan", err)
		}
	})
	t.Run("disconnect", func(t *testing.T) {
		net := NewNetwork(g, 1)
		if err := net.ConnectRemote(group, bounds); err != nil {
			t.Fatal(err)
		}
		if err := net.ConnectRemote(nil, nil); err != nil {
			t.Fatal(err)
		}
		if net.Remote() != 0 {
			t.Fatalf("Remote() = %d after disconnect", net.Remote())
		}
	})
}

func TestNewShardEngineValidation(t *testing.T) {
	g, err := graph.Torus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	bounds := PlanShards(g, 2)
	if _, err := NewShardEngine(g, bounds, 2, 1, nil); !errors.Is(err, ErrShardPlan) {
		t.Fatalf("index out of range: err = %v, want ErrShardPlan", err)
	}
	if _, err := NewShardEngine(g, []int32{0, 3}, 0, 1, nil); !errors.Is(err, ErrShardPlan) {
		t.Fatalf("bad cover: err = %v, want ErrShardPlan", err)
	}
	if _, err := NewShardEngine(g, bounds, 0, 1, &fault.Plan{Crashes: []fault.Crash{{Node: 99, Round: 1}}}); !errors.Is(err, ErrBadFault) {
		t.Fatalf("bad plan: err = %v, want ErrBadFault", err)
	}
}

func TestShardEnginePushViolations(t *testing.T) {
	g, err := graph.Torus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	bounds := PlanShards(g, 2)
	eng, err := NewShardEngine(g, bounds, 0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng.RunBegin()
	lo, hi := eng.NodeRange()
	if lo != 0 || hi == 0 {
		t.Fatalf("NodeRange() = [%d,%d)", lo, hi)
	}
	outside := graph.NodeID(bounds[1]) // first node of shard 1
	cases := map[string][]Message{
		"outside-range": {MakeMessage(outside, 0, 1, 1, [PayloadWords]uint64{})},
		"non-neighbor":  {MakeMessage(0, 5, 1, 1, [PayloadWords]uint64{})}, // torus 4x4: 0's neighbors are 1,3,4,12
		"zero-words":    {MakeMessage(0, 1, 1, 0, [PayloadWords]uint64{})},
		"bad-dest":      {MakeMessage(0, 99, 1, 1, [PayloadWords]uint64{})},
	}
	for name, msgs := range cases {
		if err := eng.Push(1, msgs); !errors.Is(err, ErrBadPush) {
			t.Fatalf("%s: err = %v, want ErrBadPush", name, err)
		}
	}
	// A valid push still works after rejected ones.
	if err := eng.Push(1, []Message{MakeMessage(0, 1, 1, 1, [PayloadWords]uint64{42})}); err != nil {
		t.Fatal(err)
	}
	if eng.Active() != 1 {
		t.Fatalf("Active() = %d, want 1", eng.Active())
	}
	out := eng.Deliver(1)
	if len(out) != 1 || out[0].To != 1 || out[0].W[0] != 42 {
		t.Fatalf("Deliver: %+v", out)
	}
	res, loss := eng.RunEnd()
	if res.Messages != 1 || loss.Valid {
		t.Fatalf("RunEnd: %+v, %+v", res, loss)
	}
	if runs, pushed, delivered := eng.Stats(); runs != 1 || pushed != 1 || delivered != 1 {
		t.Fatalf("Stats: %d/%d/%d", runs, pushed, delivered)
	}
}
