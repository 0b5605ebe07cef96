package congest

import (
	"errors"
	"reflect"
	"testing"

	"distwalk/internal/fault"
	"distwalk/internal/graph"
)

func reshapeGraph(t *testing.T) *graph.G {
	t.Helper()
	g, err := graph.Torus(12, 12)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestReshapeNoneOnSameGraph(t *testing.T) {
	g := reshapeGraph(t)
	net := NewNetwork(g, 7)
	changed, err := net.Reshape(g)
	if err != nil || changed {
		t.Fatalf("Reshape(same graph) = %v, %v; want false, nil", changed, err)
	}
}

// TestReshapeMatchesFreshNetwork pins the structural contract: after
// Reshape(g2)+Reseed(s), the unsharded network's directed-edge index is
// byte-identical to NewNetwork(g2, s)'s — buildIndex is shared, so the
// layout cannot drift between construction and re-shaping.
func TestReshapeMatchesFreshNetwork(t *testing.T) {
	g := reshapeGraph(t)
	g2, err := g.ApplyEdits(
		[]graph.EdgeEdit{{U: 0, V: 1}},
		[]graph.EdgeEdit{{U: 0, V: 77, W: 2}, {U: 5, V: 130}},
	)
	if err != nil {
		t.Fatal(err)
	}
	net := NewNetwork(g, 7)
	changed, err := net.Reshape(g2)
	if err != nil || !changed {
		t.Fatalf("Reshape(new graph) = %v, %v; want true, nil", changed, err)
	}
	net.Reseed(7)

	fresh := NewNetwork(g2, 7)
	if net.Graph() != g2 {
		t.Fatal("reshaped network does not serve the new graph")
	}
	if !reflect.DeepEqual(net.off, fresh.off) ||
		!reflect.DeepEqual(net.nbrTo, fresh.nbrTo) ||
		!reflect.DeepEqual(net.nbrEdge, fresh.nbrEdge) {
		t.Fatal("reshaped directed-edge index differs from a freshly built network")
	}
	if len(net.queues) != len(fresh.queues) {
		t.Fatalf("reshaped network has %d queue headers, fresh %d", len(net.queues), len(fresh.queues))
	}
}

// TestReshapeKeepsQueueMemory: a mutation must not send a warm network
// back to growing memory. Reshape rebuilds every edge half; the queue slab
// and the transfer buffers the traffic had grown carry over, so the run
// after a reshape allocates exactly what a warm run does — nothing when
// unsharded, the per-Run goroutines when sharded.
func TestReshapeKeepsQueueMemory(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	g := reshapeGraph(t)
	g2, err := g.ApplyEdits([]graph.EdgeEdit{{U: 0, V: 1}}, []graph.EdgeEdit{{U: 0, V: 77}})
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2} {
		net := NewNetwork(g, 7, WithShards(shards))
		run := func() {
			if _, err := net.Run(&benchFlood{rounds: 8}); err != nil {
				t.Fatal(err)
			}
		}
		next := g2
		reshape := func() {
			if changed, err := net.Reshape(next); err != nil || !changed {
				t.Fatalf("S=%d: Reshape = %v, %v; want true, nil", shards, changed, err)
			}
			if next == g2 {
				next = g
			} else {
				next = g2
			}
		}
		for i := 0; i < 2; i++ { // both shapes once: inboxes, slab and buffers at their steady size
			run()
			reshape()
		}
		warm := testing.AllocsPerRun(10, run)
		alone := testing.AllocsPerRun(10, reshape)
		both := testing.AllocsPerRun(10, func() { reshape(); run() })
		if both != alone+warm {
			t.Errorf("S=%d: Reshape+Run allocates %.1f objects, Reshape alone %.1f and a warm Run %.1f: the run after a reshape grew memory",
				shards, both, alone, warm)
		}
	}
}

// skewEdits piles 300 parallel edges onto node 0, enough to move the
// degree-balanced boundaries of reshapeGraph's partition.
func skewEdits() []graph.EdgeEdit {
	heavy := make([]graph.EdgeEdit, 300)
	for i := range heavy {
		heavy[i] = graph.EdgeEdit{U: 0, V: 1}
	}
	return heavy
}

// shardBoundsOf reads the network's current partition as S+1 node bounds.
func shardBoundsOf(net *Network) []int32 {
	bounds := []int32{0}
	for _, sh := range net.shards {
		bounds = append(bounds, sh.nodeHi)
	}
	return bounds
}

// TestReshapeReplansShards: every Reshape re-plans the partition, so after
// it the bounds are what PlanShards gives the new graph at the same shard
// count — after a small edit and after one that skews the edge load.
func TestReshapeReplansShards(t *testing.T) {
	g := reshapeGraph(t)
	net := NewNetwork(g, 7, WithShards(4))
	g2, err := g.ApplyEdits([]graph.EdgeEdit{{U: 0, V: 1}}, []graph.EdgeEdit{{U: 0, V: 77}})
	if err != nil {
		t.Fatal(err)
	}
	g3, err := g2.ApplyEdits(nil, skewEdits())
	if err != nil {
		t.Fatal(err)
	}
	for _, next := range []*graph.G{g2, g3} {
		if changed, err := net.Reshape(next); err != nil || !changed {
			t.Fatalf("Reshape = %v, %v; want true, nil", changed, err)
		}
		if got, want := shardBoundsOf(net), PlanShards(next, 4); !reflect.DeepEqual(got, want) {
			t.Fatalf("partition after Reshape = %v, want PlanShards = %v", got, want)
		}
	}
	if reflect.DeepEqual(PlanShards(g2, 4), PlanShards(g3, 4)) {
		t.Fatal("the skewing edit did not move the planned bounds; the test lost its second case")
	}
}

func TestReshapeErrors(t *testing.T) {
	g := reshapeGraph(t)

	t.Run("nil graph", func(t *testing.T) {
		net := NewNetwork(g, 7)
		if _, err := net.Reshape(nil); err == nil {
			t.Fatal("Reshape(nil) succeeded")
		}
	})
	t.Run("changed node count", func(t *testing.T) {
		small, err := graph.Torus(6, 6)
		if err != nil {
			t.Fatal(err)
		}
		net := NewNetwork(g, 7)
		if _, err := net.Reshape(small); err == nil {
			t.Fatal("Reshape to a different node count succeeded")
		}
	})
	t.Run("per-edge capacities", func(t *testing.T) {
		net := NewNetwork(g, 7, WithEdgeCapFunc(func(from, to graph.NodeID) int { return 2 }))
		g2, err := g.ApplyEdits(nil, []graph.EdgeEdit{{U: 0, V: 20}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := net.Reshape(g2); err == nil {
			t.Fatal("Reshape with per-edge capacities succeeded")
		}
	})
}

// TestReshapeFaultPlanRecompile: the installed plan is recompiled against
// the new topology; a plan referencing a removed link fails the reshape
// (callers validate before mutating, so this is the defensive backstop).
func TestReshapeFaultPlanRecompile(t *testing.T) {
	g := reshapeGraph(t)
	net := NewNetwork(g, 7)
	plan := &fault.Plan{LinkDrops: []fault.LinkDrop{{From: 0, To: 1, Prob: 0.5}}}
	if err := net.SetFaultPlan(plan); err != nil {
		t.Fatal(err)
	}

	// A mutation keeping the dropped link recompiles cleanly.
	g2, err := g.ApplyEdits(nil, []graph.EdgeEdit{{U: 0, V: 20}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Reshape(g2); err != nil {
		t.Fatalf("reshape with intact fault link: %v", err)
	}
	if net.FaultPlan() != plan {
		t.Fatal("installed fault plan lost across reshape")
	}

	// Removing the dropped link orphans the plan: typed failure.
	g3, err := g2.ApplyEdits([]graph.EdgeEdit{{U: 0, V: 1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Reshape(g3); !errors.Is(err, ErrBadFault) {
		t.Fatalf("reshape with orphaned fault link: err = %v, want ErrBadFault", err)
	}
}

// TestReshapeRefusalChangesNothing: a Reshape the installed fault plan
// refuses leaves the network as it was — same graph, same plan, same
// index — and a retry is refused again instead of passing on a network
// that silently dropped its plan.
func TestReshapeRefusalChangesNothing(t *testing.T) {
	g, err := graph.Torus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	net := NewNetwork(g, 7)
	plan := &fault.Plan{LinkDrops: []fault.LinkDrop{{From: 0, To: 1, Prob: 1}}}
	if err := net.SetFaultPlan(plan); err != nil {
		t.Fatal(err)
	}
	g2, err := g.ApplyEdits([]graph.EdgeEdit{{U: 0, V: 1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	off := append([]int32(nil), net.off...)
	for try := 1; try <= 2; try++ {
		changed, err := net.Reshape(g2)
		if !errors.Is(err, ErrBadFault) || changed {
			t.Fatalf("try %d: Reshape = %v, %v; want false, ErrBadFault", try, changed, err)
		}
		if net.Graph() != g {
			t.Fatalf("try %d: the refused Reshape installed the new graph", try)
		}
		if net.FaultPlan() != plan {
			t.Fatalf("try %d: the refused Reshape dropped the fault plan (now %v)", try, net.FaultPlan())
		}
		if !reflect.DeepEqual(net.off, off) {
			t.Fatalf("try %d: the refused Reshape rebuilt the edge index", try)
		}
	}
}

// TestShardStatsSurviveReshape: Reshape rebuilds the shard structs, and
// must not detach the network from its ShardCounters block (a Service's
// block sums its workers' networks into monotone totals) — whether or not
// the re-planned bounds moved.
func TestShardStatsSurviveReshape(t *testing.T) {
	g := reshapeGraph(t)
	block := make(ShardCounters, 2)
	net := NewNetwork(g, 7, WithShards(2), WithShardCounters(block))
	run := func() ShardStats {
		t.Helper()
		net.Reseed(7)
		if _, err := net.Run((&stressProto{seeds: 2, hops: 20}).prepare(g.N())); err != nil {
			t.Fatal(err)
		}
		return block.Stats()
	}
	before := run()

	for step, add := range [][]graph.EdgeEdit{{{U: 0, V: 77}}, skewEdits()} {
		g2, err := net.Graph().ApplyEdits(nil, add)
		if err != nil {
			t.Fatal(err)
		}
		if changed, err := net.Reshape(g2); err != nil || !changed {
			t.Fatalf("Reshape %d = %v, %v; want true, nil", step, changed, err)
		}
		if got := block.Stats(); !reflect.DeepEqual(got, before) {
			t.Fatalf("reshape %d changed ShardStats\n got %+v\nwant %+v", step, got, before)
		}
		after := run()
		for i := range after.Stepped {
			if after.Stepped[i] <= before.Stepped[i] || after.Delivered[i] <= before.Delivered[i] ||
				after.BarrierWait[i] <= before.BarrierWait[i] {
				t.Fatalf("shard %d counters not cumulative across reshape: %+v then %+v", i, before, after)
			}
		}
		before = after
	}
}
