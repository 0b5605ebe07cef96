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
	kind, err := net.Reshape(g)
	if err != nil || kind != ReshapeNone {
		t.Fatalf("Reshape(same graph) = %v, %v; want ReshapeNone, nil", kind, err)
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
	kind, err := net.Reshape(g2)
	if err != nil {
		t.Fatal(err)
	}
	if kind != ReshapeFull {
		t.Fatalf("unsharded Reshape = %v, want ReshapeFull", kind)
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
// unsharded (a full reshape), the per-Run goroutines when sharded (an
// incremental one).
func TestReshapeKeepsQueueMemory(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	g := reshapeGraph(t)
	g2, err := g.ApplyEdits([]graph.EdgeEdit{{U: 0, V: 1}}, []graph.EdgeEdit{{U: 0, V: 77}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		shards int
		kind   ReshapeKind
	}{{1, ReshapeFull}, {2, ReshapeIncremental}} {
		net := NewNetwork(g, 7, WithShards(tc.shards))
		run := func() {
			if _, err := net.Run(&benchFlood{rounds: 8}); err != nil {
				t.Fatal(err)
			}
		}
		next := g2
		reshape := func() {
			kind, err := net.Reshape(next)
			if err != nil || kind != tc.kind {
				t.Fatalf("S=%d: Reshape = %v, %v; want %v", tc.shards, kind, err, tc.kind)
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
				tc.shards, both, alone, warm)
		}
	}
}

// skewEdits piles 300 parallel edges onto node 0, enough to push the first
// shard of reshapeGraph's partition past the reshape slack.
func skewEdits() []graph.EdgeEdit {
	heavy := make([]graph.EdgeEdit, 300)
	for i := range heavy {
		heavy[i] = graph.EdgeEdit{U: 0, V: 1}
	}
	return heavy
}

func TestReshapeShardedKinds(t *testing.T) {
	g := reshapeGraph(t)
	net := NewNetwork(g, 7, WithShards(4))
	preBounds := make([]int32, 5)
	for i, sh := range net.shards {
		preBounds[i] = sh.nodeLo
	}
	preBounds[4] = net.shards[3].nodeHi

	// One removed and one added edge leave the per-shard edge balance
	// essentially untouched: the old partition must be kept.
	g2, err := g.ApplyEdits([]graph.EdgeEdit{{U: 0, V: 1}}, []graph.EdgeEdit{{U: 0, V: 77}})
	if err != nil {
		t.Fatal(err)
	}
	kind, err := net.Reshape(g2)
	if err != nil {
		t.Fatal(err)
	}
	if kind != ReshapeIncremental {
		t.Fatalf("balanced mutation reshaped as %v, want ReshapeIncremental", kind)
	}
	for i, sh := range net.shards {
		if sh.nodeLo != preBounds[i] {
			t.Fatalf("incremental reshape moved shard %d lower bound %d -> %d", i, preBounds[i], sh.nodeLo)
		}
	}

	// Piling parallel edges onto one node blows the first shard's edge
	// share past the slack: the partition must be re-planned.
	g3, err := g2.ApplyEdits(nil, skewEdits())
	if err != nil {
		t.Fatal(err)
	}
	kind, err = net.Reshape(g3)
	if err != nil {
		t.Fatal(err)
	}
	if kind != ReshapeFull {
		t.Fatalf("skewed mutation reshaped as %v, want ReshapeFull", kind)
	}
	moved := false
	for i, sh := range net.shards {
		if sh.nodeLo != preBounds[i] {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("full reshape kept the old (now unbalanced) shard bounds")
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

func TestGenerationStamp(t *testing.T) {
	g := reshapeGraph(t)
	net := NewNetwork(g, 7)
	if got := net.Generation(); got != 0 {
		t.Fatalf("fresh network Generation() = %d, want 0 (unstamped)", got)
	}
	net.SetGeneration(5)
	if got := net.Generation(); got != 5 {
		t.Fatalf("Generation() = %d after SetGeneration(5)", got)
	}
	// The stamp is owner state: reshaping does not touch it.
	g2, err := g.ApplyEdits(nil, []graph.EdgeEdit{{U: 0, V: 20}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Reshape(g2); err != nil {
		t.Fatal(err)
	}
	if got := net.Generation(); got != 5 {
		t.Fatalf("Reshape changed the generation stamp to %d", got)
	}
}

// TestShardStatsSurviveReshape: both Reshape kinds rebuild the shard
// structs, and neither may detach the network from its ShardCounters
// block (a Service's block sums its workers' networks into monotone
// totals).
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

	for _, step := range []struct {
		add  []graph.EdgeEdit
		want ReshapeKind
	}{
		{[]graph.EdgeEdit{{U: 0, V: 77}}, ReshapeIncremental},
		{skewEdits(), ReshapeFull},
	} {
		g2, err := net.Graph().ApplyEdits(nil, step.add)
		if err != nil {
			t.Fatal(err)
		}
		if kind, err := net.Reshape(g2); err != nil || kind != step.want {
			t.Fatalf("Reshape = %v, %v; want %v", kind, err, step.want)
		}
		if got := block.Stats(); !reflect.DeepEqual(got, before) {
			t.Fatalf("%v reshape changed ShardStats\n got %+v\nwant %+v", step.want, got, before)
		}
		after := run()
		for i := range after.Stepped {
			if after.Stepped[i] <= before.Stepped[i] || after.Delivered[i] <= before.Delivered[i] ||
				after.BarrierWait[i] <= before.BarrierWait[i] {
				t.Fatalf("shard %d counters not cumulative across a %v reshape: %+v then %+v", i, step.want, before, after)
			}
		}
		before = after
	}
}
