package distwalk_test

// Dynamic-topology tests: ApplyMutations semantics (atomicity, COW,
// generation accounting), cache invalidation, epoch pinning across
// in-flight, queued and retried
// requests, and the mutation axis of the bit-identity contract
// (same results at every shard count, in-process and cluster alike).

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"distwalk"
	"distwalk/internal/stats"
)

func mustTorus(t *testing.T, r, c int) *distwalk.Graph {
	t.Helper()
	g, err := distwalk.Torus(r, c)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// neighborsHave reports whether g has an edge u-v.
func neighborsHave(g *distwalk.Graph, u, v distwalk.NodeID) bool {
	for _, h := range g.Neighbors(u) {
		if h.To == v {
			return true
		}
	}
	return false
}

// generation reads svc's current topology generation: an empty batch
// returns it without bumping it.
func generation(t *testing.T, svc *distwalk.Service) distwalk.Generation {
	t.Helper()
	gen, err := svc.ApplyMutations(context.Background(), distwalk.Mutations{})
	if err != nil {
		t.Fatal(err)
	}
	return gen
}

func TestApplyMutationsBasics(t *testing.T) {
	ctx := context.Background()
	g := mustTorus(t, 6, 6)
	svc, err := distwalk.NewService(g, 42)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	// An empty batch is a no-op, not a bump: it reads the generation, 1
	// on a fresh service.
	gen, err := svc.ApplyMutations(ctx, distwalk.Mutations{})
	if err != nil || gen != 1 {
		t.Fatalf("empty batch: gen %v err %v, want 1 <nil>", gen, err)
	}

	gen, err = svc.ApplyMutations(ctx, distwalk.Mutations{
		RemoveEdges: []distwalk.EdgeMutation{{U: 0, V: 1}},
		AddEdges:    []distwalk.EdgeMutation{{U: 0, V: 20}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if gen != 2 || generation(t, svc) != 2 {
		t.Fatalf("post-mutation generation = %v / %v, want 2", gen, generation(t, svc))
	}
	g2 := svc.Graph()
	if g2 == g {
		t.Fatal("Graph() still returns the pre-mutation graph")
	}
	if neighborsHave(g2, 0, 1) || !neighborsHave(g2, 0, 20) {
		t.Fatalf("mutated graph edges wrong: 0-1 present=%v, 0-20 present=%v",
			neighborsHave(g2, 0, 1), neighborsHave(g2, 0, 20))
	}
	// Copy-on-write: the input graph is untouched.
	if !neighborsHave(g, 0, 1) || neighborsHave(g, 0, 20) {
		t.Fatal("ApplyMutations modified the original graph")
	}

	st := svc.Stats().Mutation
	if st.Generation != 2 || st.Applied != 1 || st.EdgesAdded != 1 || st.EdgesRemoved != 1 {
		t.Fatalf("MutationStats = %+v, want gen 2, 1 applied, 1 added, 1 removed", st)
	}

	// A request on the mutated topology is bit-identical to the same
	// request on a service built directly over the mutated graph: the
	// generation ordinal must leave results untouched.
	res, err := svc.SingleRandomWalk(ctx, 9, 0, 2048)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := distwalk.NewService(g2, 42)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	want, err := fresh.SingleRandomWalk(ctx, 9, 0, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if res.Destination != want.Destination || res.Cost != want.Cost {
		t.Fatalf("post-mutation request diverged from fresh service:\n  mutated: dest=%d cost=%+v\n  fresh:   dest=%d cost=%+v",
			res.Destination, res.Cost, want.Destination, want.Cost)
	}
}

// The endpoint law stays exact after the topology changes (the dynamic-
// network setting of "Distributed Random Walks"): samples drawn through a
// service that lived through two mutation batches are χ²-tested against
// the exact ℓ-step distribution of the graph it ended on, and must equal,
// key for key, those of a service built directly on that graph.
func TestClaimEndpointLawAfterMutations(t *testing.T) {
	ctx := context.Background()
	const (
		src     = distwalk.NodeID(5)
		ell     = 30
		samples = 3000
	)
	g, err := distwalk.Candy(4, 2) // K4 on 0..3 with the path 0-4-5
	if err != nil {
		t.Fatal(err)
	}
	// λ=3 forces heavy stitching at ℓ=30.
	opts := []distwalk.Option{distwalk.WithWorkers(1), distwalk.WithParams(distwalk.Params{Lambda: 3, LambdaC: 1, Eta: 1})}
	svc, err := distwalk.NewService(g, 42, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	for _, m := range []distwalk.Mutations{
		{AddEdges: []distwalk.EdgeMutation{{U: 1, V: 4}, {U: 2, V: 5}}},
		{RemoveEdges: []distwalk.EdgeMutation{{U: 0, V: 4}}, AddEdges: []distwalk.EdgeMutation{{U: 3, V: 5}}},
	} {
		if _, err := svc.ApplyMutations(ctx, m); err != nil {
			t.Fatal(err)
		}
	}
	fresh, err := distwalk.NewService(svc.Graph(), 42, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()

	counts := make([]int, g.N())
	for key := uint64(0); key < samples; key++ {
		res, err := svc.SingleRandomWalk(ctx, key, src, ell)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.SingleRandomWalk(ctx, key, src, ell)
		if err != nil {
			t.Fatal(err)
		}
		if res.Destination != want.Destination {
			t.Fatalf("key %d: mutated service ended at %d, a fresh service on the same graph at %d",
				key, res.Destination, want.Destination)
		}
		counts[res.Destination]++
	}
	exact, err := distwalk.WalkDistribution(svc.Graph(), src, ell)
	if err != nil {
		t.Fatal(err)
	}
	stat, df, err := stats.ChiSquare(counts, exact)
	if err != nil {
		t.Fatal(err)
	}
	p, err := stats.ChiSquarePValue(stat, df)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("chi2=%.2f df=%d p=%.4f", stat, df, p)
	if p < 1e-4 {
		t.Fatalf("post-mutation endpoint distribution rejected: chi2=%v df=%d p=%v counts=%v exact=%v",
			stat, df, p, counts, exact)
	}
}

func TestApplyMutationsRejectsBadBatches(t *testing.T) {
	ctx := context.Background()
	g := mustTorus(t, 6, 6)
	svc, err := distwalk.NewService(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	cases := []struct {
		name string
		m    distwalk.Mutations
	}{
		{"missing removal", distwalk.Mutations{RemoveEdges: []distwalk.EdgeMutation{{U: 0, V: 20}}}},
		{"self loop", distwalk.Mutations{AddEdges: []distwalk.EdgeMutation{{U: 3, V: 3}}}},
		{"out of range", distwalk.Mutations{AddEdges: []distwalk.EdgeMutation{{U: 0, V: 99}}}},
		{"negative weight", distwalk.Mutations{AddEdges: []distwalk.EdgeMutation{{U: 0, V: 20, W: -1}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			gen, err := svc.ApplyMutations(ctx, tc.m)
			if !errors.Is(err, distwalk.ErrBadMutation) {
				t.Fatalf("err = %v, want ErrBadMutation", err)
			}
			if gen != 1 || generation(t, svc) != 1 {
				t.Fatalf("rejected batch bumped the generation to %v", generation(t, svc))
			}
		})
	}

	// A valid edit paired with an invalid one is rejected whole.
	gen, err := svc.ApplyMutations(ctx, distwalk.Mutations{
		AddEdges: []distwalk.EdgeMutation{{U: 0, V: 20}, {U: 5, V: 5}},
	})
	if !errors.Is(err, distwalk.ErrBadMutation) || gen != 1 {
		t.Fatalf("mixed batch: gen %v err %v, want rejection at gen 1", gen, err)
	}
	if neighborsHave(svc.Graph(), 0, 20) {
		t.Fatal("rejected batch partially applied")
	}

	// A done context rejects the batch before it applies.
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := svc.ApplyMutations(cctx, distwalk.Mutations{AddEdges: []distwalk.EdgeMutation{{U: 0, V: 20}}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("done context: err = %v, want context.Canceled", err)
	}

	svc.Close()
	if _, err := svc.ApplyMutations(ctx, distwalk.Mutations{AddEdges: []distwalk.EdgeMutation{{U: 0, V: 20}}}); !errors.Is(err, distwalk.ErrServiceClosed) {
		t.Fatalf("closed service: err = %v, want ErrServiceClosed", err)
	}
}

func TestApplyMutationsRejectsFaultPlanOrphan(t *testing.T) {
	g := mustTorus(t, 6, 6)
	plan := &distwalk.FaultPlan{
		LinkDrops: []distwalk.FaultLinkDrop{{From: 0, To: 1, Prob: 0.5}},
	}
	svc, err := distwalk.NewService(g, 1, distwalk.WithFaultPlan(plan))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	// Removing the dropped link would strand the installed plan on every
	// future worker reshape; the mutation must fail atomically instead.
	_, err = svc.ApplyMutations(context.Background(), distwalk.Mutations{
		RemoveEdges: []distwalk.EdgeMutation{{U: 0, V: 1}},
	})
	if !errors.Is(err, distwalk.ErrBadMutation) || !errors.Is(err, distwalk.ErrBadFault) {
		t.Fatalf("err = %v, want ErrBadMutation and ErrBadFault", err)
	}
	if gen := generation(t, svc); gen != 1 {
		t.Fatalf("generation bumped to %v by a rejected mutation", gen)
	}
	// Removing some other edge is fine.
	if _, err := svc.ApplyMutations(context.Background(), distwalk.Mutations{
		RemoveEdges: []distwalk.EdgeMutation{{U: 2, V: 3}},
	}); err != nil {
		t.Fatal(err)
	}
}

// TestMutationInvalidatesCache pins the invalidation contract: after a
// mutation a previously cached request misses (an old-generation hit is
// impossible), and repeats under the new generation hit again.
func TestMutationInvalidatesCache(t *testing.T) {
	ctx := context.Background()
	g := mustTorus(t, 8, 8)
	svc, err := distwalk.NewService(g, 42, distwalk.WithResultCache(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	run := func() {
		t.Helper()
		if _, err := svc.SingleRandomWalk(ctx, 5, 0, 512); err != nil {
			t.Fatal(err)
		}
	}
	hitsMisses := func() (int64, int64) {
		st := svc.Stats().Cache
		return st.Hits, st.Misses
	}

	run() // lead
	run() // hit
	if h, m := hitsMisses(); h != 1 || m != 1 {
		t.Fatalf("warmup: hits=%d misses=%d, want 1/1", h, m)
	}

	gen, err := svc.ApplyMutations(ctx, distwalk.Mutations{AddEdges: []distwalk.EdgeMutation{{U: 0, V: 30}}})
	if err != nil {
		t.Fatal(err)
	}
	if gen != 2 {
		t.Fatalf("ApplyMutations published generation %v, want 2", gen)
	}
	run() // must miss: the old generation's entry is unreachable
	if h, m := hitsMisses(); h != 1 || m != 2 {
		t.Fatalf("after ApplyMutations: hits=%d misses=%d, want 1/2", h, m)
	}
	run() // and hit again under the new generation
	if h, m := hitsMisses(); h != 2 || m != 2 {
		t.Fatalf("re-warm after ApplyMutations: hits=%d misses=%d, want 2/2", h, m)
	}
}

// TestMutationPinnedInFlightNotStored submits a long epoch-pinned request,
// mutates the topology while it is (likely still) in flight, and checks
// both halves of the pinning contract: the request completes without
// error, and its result is never stored — the next identical request
// leads its own execution instead of hitting.
func TestMutationPinnedInFlightNotStored(t *testing.T) {
	ctx := context.Background()
	g := mustTorus(t, 16, 16)
	svc, err := distwalk.NewService(g, 42, distwalk.WithResultCache(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	done := make(chan error, 1)
	go func() {
		_, err := svc.SingleRandomWalk(ctx, 11, 0, 1<<17)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // give the walk a head start
	if _, err := svc.ApplyMutations(ctx, distwalk.Mutations{AddEdges: []distwalk.EdgeMutation{{U: 0, V: 100}}}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("epoch-pinned in-flight request failed across the mutation: %v", err)
	}
	// Whether or not the mutation actually overlapped the execution, the
	// old-generation result must be unreachable now: same request again
	// must miss.
	if _, err := svc.SingleRandomWalk(ctx, 11, 0, 1<<17); err != nil {
		t.Fatal(err)
	}
	if st := svc.Stats().Cache; st.Hits != 0 {
		t.Fatalf("post-mutation repeat hit a stale entry: %+v", st)
	}
}

// TestMutationPinnedQueuedBatchRuns: a SubmitWalk waiting in a pending
// batch when ApplyMutations publishes stays queued and executes pinned
// when the window flushes.
func TestMutationPinnedQueuedBatchRuns(t *testing.T) {
	ctx := context.Background()
	g := mustTorus(t, 8, 8)
	svc, err := distwalk.NewService(g, 42, distwalk.WithBatching(64, 100*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	h, err := svc.SubmitWalk(ctx, 3, 0, 256)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.ApplyMutations(ctx, distwalk.Mutations{AddEdges: []distwalk.EdgeMutation{{U: 0, V: 30}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Result(); err != nil {
		t.Fatalf("queued epoch-pinned walk failed across the mutation: %v", err)
	}
}

// TestMutationPinnedBatchFallbackStaysOnSnapshot: a batched member whose
// batch aborts (a lossy link drops a token) re-runs alone under
// WithRetry, and that re-run stays on the snapshot the member admitted
// under even though ApplyMutations published a successor while the
// member was queued (one worker runs the three batches of eight in turn,
// so the last two wait out the mutation). Every handle must match the
// same submissions on a service that never mutates.
func TestMutationPinnedBatchFallbackStaysOnSnapshot(t *testing.T) {
	ctx := context.Background()
	type outcome struct {
		err  bool
		dest distwalk.NodeID
		cost distwalk.Cost
	}
	run := func(mutate bool) ([]outcome, int) {
		t.Helper()
		svc, err := distwalk.NewService(mustTorus(t, 8, 8), 42,
			distwalk.WithFaultPlan(&distwalk.FaultPlan{Seed: 5, DropProb: 0.01}),
			distwalk.WithBatching(8, 50*time.Millisecond), distwalk.WithRetry(6), distwalk.WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		var handles []*distwalk.WalkHandle
		for key := uint64(0); key < 24; key++ {
			h, err := svc.SubmitWalk(ctx, key, 0, 512)
			if err != nil {
				t.Fatal(err)
			}
			handles = append(handles, h)
		}
		if mutate {
			mut := distwalk.Mutations{AddEdges: []distwalk.EdgeMutation{{U: 0, V: 27}, {U: 0, V: 36}}}
			if _, err := svc.ApplyMutations(ctx, mut); err != nil {
				t.Fatal(err)
			}
		}
		var outs []outcome
		fellBack := 0
		for _, h := range handles {
			res, err := h.Result()
			o := outcome{err: err != nil}
			if err == nil {
				o.dest, o.cost = res.Destination, res.Cost
			}
			if h.Batch().Reason == distwalk.FlushUnbatched {
				fellBack++
			}
			outs = append(outs, o)
		}
		return outs, fellBack
	}
	got, fellBack := run(true)
	want, _ := run(false)
	if fellBack == 0 {
		t.Fatal("no batch aborted: the fallback path was not exercised")
	}
	for key := range got {
		if got[key] != want[key] {
			t.Errorf("key %d diverged from the never-mutated service:\n  mutated: %+v\n  fixed:   %+v", key, got[key], want[key])
		}
	}
}

// testShardIdentityMutate extends the bit-identity contract across a
// mutation: requests before and after the same edit batch must produce
// identical results at every shard count — whichever partition each
// shard count's worker networks re-planned.
func testShardIdentityMutate(t *testing.T, shards int) {
	ctx := context.Background()
	g := mustTorus(t, 12, 12)
	mut := distwalk.Mutations{
		RemoveEdges: []distwalk.EdgeMutation{{U: 0, V: 1}},
		AddEdges:    []distwalk.EdgeMutation{{U: 0, V: 77, W: 2}, {U: 5, V: 130}},
	}

	digest := func(svc *distwalk.Service) string {
		var b []string
		// Concurrent requests against the current epoch.
		var (
			mu sync.Mutex
			wg sync.WaitGroup
		)
		outs := make(map[uint64]string)
		for key := uint64(1); key <= 4; key++ {
			wg.Add(1)
			go func(key uint64) {
				defer wg.Done()
				res, err := svc.SingleRandomWalk(ctx, key, 0, 1024)
				s := ""
				if err != nil {
					s = "err:" + err.Error()
				} else {
					s = fmt.Sprintf("dest=%d len=%d cost=%+v", res.Destination, res.Length, res.Cost)
				}
				mu.Lock()
				outs[key] = s
				mu.Unlock()
			}(key)
		}
		wg.Wait()
		for key := uint64(1); key <= 4; key++ {
			b = append(b, fmt.Sprintf("key%d{%s}", key, outs[key]))
		}
		return fmt.Sprint(b)
	}

	run := func() string {
		opts := []distwalk.Option{distwalk.WithWorkers(2)}
		if shards > 1 {
			opts = append(opts, distwalk.WithShards(shards))
		}
		svc, err := distwalk.NewService(g, 42, opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		pre := digest(svc)
		before := svc.Stats().Shards
		if _, err := svc.ApplyMutations(ctx, mut); err != nil {
			t.Fatal(err)
		}
		// The reshape rebuilds every worker's shards; the cumulative
		// occupancy counters must not restart with them. One short walk
		// makes a worker report: a restarted counter folds in as a large
		// negative delta.
		if _, err := svc.SingleRandomWalk(ctx, 99, 0, 16); err != nil {
			t.Fatal(err)
		}
		after := svc.Stats().Shards
		for i := range before.Stepped {
			if after.Stepped[i] < before.Stepped[i] || after.Delivered[i] < before.Delivered[i] ||
				after.BarrierWait[i] < before.BarrierWait[i] {
				t.Fatalf("Stats().Shards ran backwards across ApplyMutations at shard %d:\n before %+v\n after  %+v", i, before, after)
			}
		}
		post := digest(svc)
		return "pre" + pre + "|post" + post
	}

	got := run()

	// Reference: an unsharded single-worker service over the same graphs.
	ref, err := distwalk.NewService(g, 42)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	pre := digest(ref)
	if _, err := ref.ApplyMutations(ctx, mut); err != nil {
		t.Fatal(err)
	}
	want := "pre" + pre + "|post" + digest(ref)
	if got != want {
		t.Fatalf("mutate-between-requests diverged at %d shards:\n  got:  %s\n  want: %s", shards, got, want)
	}
}

func TestShardIdentityMutate1(t *testing.T) { testShardIdentityMutate(t, 1) }
func TestShardIdentityMutate2(t *testing.T) { testShardIdentityMutate(t, 2) }
func TestShardIdentityMutate4(t *testing.T) { testShardIdentityMutate(t, 4) }
func TestShardIdentityMutate8(t *testing.T) { testShardIdentityMutate(t, 8) }

// TestReshapeParallelEdgeTogglesSendPath: whether a node's port-addressed
// sends skip the neighbor index depends on whether it has parallel edges,
// a fact derived from the topology at every reshape. A mutation that adds
// a parallel edge and one that removes it again must each leave the warm
// service answering exactly like a fresh one over the same graph — sharded
// or not, with and without regeneration, and for the applications that
// drive the walker through many runs (spanning tree, mixing estimate).
func TestReshapeParallelEdgeTogglesSendPath(t *testing.T) {
	ctx := context.Background()
	sources := []distwalk.NodeID{0, 1, 9, 0}
	type answers struct {
		Single, Naive *distwalk.WalkResult
		Many          *distwalk.ManyResult
		Traced        *distwalk.WalkResult
		Trace         *distwalk.Trace
		Tree          *distwalk.RSTResult
		Mixing        *distwalk.MixingEstimate
		MixingErr     string // the bipartite steps cannot mix
	}
	ask := func(svc *distwalk.Service) (a answers) {
		t.Helper()
		var err error
		if a.Single, err = svc.SingleRandomWalk(ctx, 1, 0, 256); err != nil {
			t.Fatal(err)
		}
		if a.Naive, err = svc.NaiveWalk(ctx, 2, 1, 64); err != nil {
			t.Fatal(err)
		}
		if a.Many, err = svc.ManyRandomWalks(ctx, 3, sources, 128); err != nil {
			t.Fatal(err)
		}
		if a.Traced, a.Trace, err = svc.WalkTrace(ctx, 4, 0, 256); err != nil {
			t.Fatal(err)
		}
		if a.Tree, err = svc.RandomSpanningTree(ctx, 5, 9); err != nil {
			t.Fatal(err)
		}
		mix := distwalk.WithMixingOptions(distwalk.MixingOptions{Samples: 16, MaxEll: 256})
		if a.Mixing, err = svc.EstimateMixingTime(ctx, 6, 1, mix); errors.Is(err, distwalk.ErrNoMixing) {
			a.MixingErr = err.Error()
		} else if err != nil {
			t.Fatal(err)
		}
		return a
	}
	steps := []distwalk.Mutations{
		{}, // the simple torus: every send takes the direct path
		{AddEdges: []distwalk.EdgeMutation{{U: 0, V: 1}, {U: 9, V: 10}}},    // 0, 1, 9, 10 now choose among edges
		{RemoveEdges: []distwalk.EdgeMutation{{U: 0, V: 1}, {U: 9, V: 10}}}, // and are back to one edge per neighbor
		{AddEdges: []distwalk.EdgeMutation{{U: 0, V: 2}}},                   // an odd cycle: the walks now mix
	}
	for _, shards := range []int{1, 2} {
		warm, err := distwalk.NewService(mustTorus(t, 8, 8), 42, distwalk.WithShards(shards))
		if err != nil {
			t.Fatal(err)
		}
		defer warm.Close()
		for i, mut := range steps {
			if _, err := warm.ApplyMutations(ctx, mut); err != nil {
				t.Fatal(err)
			}
			fresh, err := distwalk.NewService(warm.Graph(), 42)
			if err != nil {
				t.Fatal(err)
			}
			got, want := ask(warm), ask(fresh)
			fresh.Close()
			if i == len(steps)-1 && got.Mixing == nil {
				t.Fatalf("shards=%d: the odd cycle did not mix (%s); the step lost its mixing case", shards, got.MixingErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("shards=%d step %d: the reshaped service diverged from a fresh one:\n got %+v\nwant %+v",
					shards, i, got.Single, want.Single)
			}
		}
	}
}

func TestOptionScopeRejected(t *testing.T) {
	ctx := context.Background()
	g := mustTorus(t, 6, 6)
	svc, err := distwalk.NewService(g, 1, distwalk.WithResultCache(1<<16))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	_, err = svc.SingleRandomWalk(ctx, 1, 0, 64, distwalk.WithWorkers(4))
	if !errors.Is(err, distwalk.ErrOptionScope) {
		t.Fatalf("per-request WithWorkers: err = %v, want ErrOptionScope", err)
	}
	var oe *distwalk.OptionScopeError
	if !errors.As(err, &oe) || oe.Option != "WithWorkers" {
		t.Fatalf("err %v does not name the offending option (got %+v)", err, oe)
	}
	if _, err := svc.SubmitWalk(ctx, 2, 0, 64, distwalk.WithShards(2)); !errors.Is(err, distwalk.ErrOptionScope) {
		t.Fatalf("per-request WithShards on SubmitWalk: err = %v, want ErrOptionScope", err)
	}
	if _, err := svc.RandomSpanningTree(ctx, 3, 0, distwalk.WithResultCache(1)); !errors.Is(err, distwalk.ErrOptionScope) {
		t.Fatalf("per-request WithResultCache: err = %v, want ErrOptionScope", err)
	}
	// Per-request options still work, construction still honors both.
	if _, err := svc.SingleRandomWalk(ctx, 4, 0, 64, distwalk.WithMaxRounds(1<<20)); err != nil {
		t.Fatal(err)
	}
}

// TestMutationChaos is the mutation stress test the chaos CI job runs:
// concurrent epoch-pinned requests race a stream of mutations; none may
// fail, and the surviving topology must equal the same edit sequence
// applied cold.
func TestMutationChaos(t *testing.T) {
	ctx := context.Background()
	g := mustTorus(t, 10, 10)
	svc, err := distwalk.NewService(g, 42, distwalk.WithWorkers(4), distwalk.WithResultCache(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	// The mutation stream toggles a diagonal chord on and off and
	// keeps a weighted edge moving; every batch is valid by construction.
	batches := make([]distwalk.Mutations, 0, 12)
	for i := 0; i < 12; i++ {
		v := distwalk.NodeID(30 + i)
		if i%2 == 0 {
			batches = append(batches, distwalk.Mutations{AddEdges: []distwalk.EdgeMutation{{U: 0, V: v}}})
		} else {
			batches = append(batches, distwalk.Mutations{RemoveEdges: []distwalk.EdgeMutation{{U: 0, V: v - 1}}})
		}
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	var failures []string
	var mu sync.Mutex
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for key := uint64(w * 100); ; key++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := svc.SingleRandomWalk(ctx, key, 0, 4096); err != nil {
					mu.Lock()
					failures = append(failures, fmt.Sprintf("worker %d key %d: %v", w, key, err))
					mu.Unlock()
					return
				}
			}
		}(w)
	}
	for _, m := range batches {
		time.Sleep(5 * time.Millisecond)
		if _, err := svc.ApplyMutations(ctx, m); err != nil {
			t.Fatalf("mutation under load: %v", err)
		}
	}
	close(stop)
	wg.Wait()
	if len(failures) > 0 {
		t.Fatalf("requests failed under mutation load:\n%v", failures)
	}

	// The surviving topology is exactly the edit sequence applied cold,
	// and a request on it matches a fresh service bit for bit.
	cold := g
	for _, m := range batches {
		cold, err = cold.ApplyEdits(m.RemoveEdges, m.AddEdges)
		if err != nil {
			t.Fatal(err)
		}
	}
	res, err := svc.SingleRandomWalk(ctx, 9999, 0, 2048)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := distwalk.NewService(cold, 42)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	want, err := fresh.SingleRandomWalk(ctx, 9999, 0, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if res.Destination != want.Destination || res.Cost != want.Cost {
		t.Fatalf("post-chaos topology diverged from cold replay:\n  live:  dest=%d cost=%+v\n  fresh: dest=%d cost=%+v",
			res.Destination, res.Cost, want.Destination, want.Cost)
	}
	if gen := generation(t, svc); gen != distwalk.Generation(1+len(batches)) {
		t.Fatalf("generation %v after %d mutations, want %d", gen, len(batches), 1+len(batches))
	}
}

// TestClusterMutationRehandshake drives a mutation through a real
// 2-process cluster: after ApplyMutations, the next request redials the
// engines with the mutated graph's handshake, the engines build their
// shards from it, and the result is bit-identical to an in-process
// service over the mutated graph. Cluster mode never runs a request in
// process, so a successful request proves the remote path worked.
func TestClusterMutationRehandshake(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster re-handshake over TCP skipped in -short mode")
	}
	ctx := context.Background()
	g := mustTorus(t, 12, 12)
	addrs := startEngines(t, 2)
	clu, err := distwalk.NewService(g, 42, distwalk.WithWorkers(2), distwalk.WithCluster(addrs...))
	if err != nil {
		t.Fatal(err)
	}
	defer clu.Close()

	if _, err := clu.SingleRandomWalk(ctx, 1, 0, 1024); err != nil {
		t.Fatal(err)
	}
	preRuns := int64(0)
	for _, e := range clu.Stats().Cluster.Engines {
		preRuns += e.Runs
	}
	if preRuns == 0 {
		t.Fatal("pre-mutation request recorded no engine runs")
	}

	mut := distwalk.Mutations{
		RemoveEdges: []distwalk.EdgeMutation{{U: 0, V: 1}},
		AddEdges:    []distwalk.EdgeMutation{{U: 0, V: 77, W: 2}},
	}
	if _, err := clu.ApplyMutations(ctx, mut); err != nil {
		t.Fatal(err)
	}
	res, err := clu.SingleRandomWalk(ctx, 2, 0, 1024)
	if err != nil {
		t.Fatalf("post-mutation cluster request failed (engines should accept the new handshake): %v", err)
	}

	// The request genuinely ran on the re-handshaken engines.
	st := clu.Stats()
	postRuns := int64(0)
	for _, e := range st.Cluster.Engines {
		postRuns += e.Runs
	}
	if postRuns <= preRuns {
		t.Fatalf("post-mutation request carried no engine traffic: runs %d -> %d", preRuns, postRuns)
	}
	if st.Cluster.Failovers != 0 {
		t.Fatalf("post-mutation request failed over in-process: %+v", st.Cluster)
	}
	for i, h := range st.Cluster.Health {
		if h != "healthy" {
			t.Errorf("engine %d health = %q after re-handshake, want healthy", i, h)
		}
	}

	// Bit-identity with an in-process service over the mutated graph.
	g2, err := g.ApplyEdits(mut.RemoveEdges, mut.AddEdges)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := distwalk.NewService(g2, 42, distwalk.WithWorkers(2), distwalk.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	want, err := fresh.SingleRandomWalk(ctx, 2, 0, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if res.Destination != want.Destination || res.Cost != want.Cost {
		t.Fatalf("cluster post-mutation walk diverged from in-process:\n  cluster: dest=%d cost=%+v\n  local:   dest=%d cost=%+v",
			res.Destination, res.Cost, want.Destination, want.Cost)
	}
}

// TestClusterPinnedBatchAcrossMutation: a SubmitWalk queued across an
// ApplyMutations runs, as a batch, on the snapshot it admitted under —
// in a cluster service exactly as in process. The batch runs on the
// engines, whose sessions are dialed with that snapshot's handshake:
// bit-identical to WithShards(2), with no failover counted and, with or
// without WithRetry, no error.
func TestClusterPinnedBatchAcrossMutation(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster batches over TCP skipped in -short mode")
	}
	ctx := context.Background()
	g := mustTorus(t, 8, 8)
	engines := startWireServers(t, 2)
	type outcome struct {
		walk  *distwalk.WalkResult
		batch distwalk.BatchInfo
	}
	run := func(t *testing.T, opts ...distwalk.Option) (outcome, distwalk.ServiceStats) {
		t.Helper()
		opts = append(opts, distwalk.WithWorkers(1), distwalk.WithBatching(64, 200*time.Millisecond))
		svc, err := distwalk.NewService(g, 42, opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		h, err := svc.SubmitWalk(ctx, 3, 0, 256)
		if err != nil {
			t.Fatal(err)
		}
		mut := distwalk.Mutations{AddEdges: []distwalk.EdgeMutation{{U: 0, V: 30}}}
		if _, err := svc.ApplyMutations(ctx, mut); err != nil {
			t.Fatal(err)
		}
		walk, err := h.Result()
		if err != nil {
			t.Fatalf("pinned batch failed: %v", err)
		}
		return outcome{walk, h.Batch()}, svc.Stats()
	}
	want, _ := run(t, distwalk.WithShards(2))
	for _, tc := range []struct {
		name string
		opts []distwalk.Option
	}{
		{"no-retry", nil},
		{"retry", []distwalk.Option{distwalk.WithRetry(2)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, st := run(t, append(tc.opts, distwalk.WithCluster(engines...))...)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("pinned cluster batch diverged from in-process:\n  cluster: dest=%d %+v\n  local:   dest=%d %+v",
					got.walk.Destination, got.batch, want.walk.Destination, want.batch)
			}
			if st.Cluster.Failovers != 0 {
				t.Fatalf("a pinned batch counted as a failover: %+v", st.Cluster)
			}
			runs := int64(0)
			for _, e := range st.Cluster.Engines {
				runs += e.Runs
			}
			if runs == 0 {
				t.Fatalf("the pinned batch ran on no engine: %+v", st.Cluster)
			}
		})
	}
}
