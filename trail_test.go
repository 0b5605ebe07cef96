package distwalk_test

import (
	"context"
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"distwalk"
	"distwalk/internal/stats"
)

// Only WalkTrace and RandomSpanningTree regenerate; every other kind, and
// every batch, only samples endpoints. These tests pin where a sampling
// request and a tracing one could be confused for each other (the cache),
// and what regeneration returns.

// checkTrace asserts tr is a complete regeneration of walk.
func checkTrace(t *testing.T, walk *distwalk.WalkResult, tr *distwalk.Trace) {
	t.Helper()
	if tr == nil {
		t.Fatal("no trace")
	}
	if len(tr.Path) != walk.Length+1 {
		t.Fatalf("trace holds %d positions, want %d", len(tr.Path), walk.Length+1)
	}
	if tr.Path[0] != walk.Source || tr.FirstVisitTime[walk.Source] != 0 {
		t.Fatal("trace does not start at the source")
	}
	if tr.Path[walk.Length] != walk.Destination {
		t.Fatal("trace does not end at the walk's destination")
	}
}

// positionsOf lists, for every node v, the walk positions at which the
// walk was at v, in increasing order.
func positionsOf(tr *distwalk.Trace) [][]int32 {
	out := make([][]int32, len(tr.FirstVisitTime))
	for pos, v := range tr.Path {
		out[v] = append(out[v], int32(pos))
	}
	return out
}

// TestTrailWalkTraceAfterSingleCached: on a cached one-worker service,
// WalkTrace with the key and operands of an earlier SingleRandomWalk must
// execute on its own (the kinds have distinct cache digests — a hit would
// hand back a walk without its trace) and return the same walk plus a
// complete trace, on the worker the sampling request left warm.
func TestTrailWalkTraceAfterSingleCached(t *testing.T) {
	g, err := distwalk.Torus(9, 9)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := distwalk.NewService(g, 42, distwalk.WithWorkers(1), distwalk.WithResultCache(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()
	single, err := svc.SingleRandomWalk(ctx, 5, 3, 700)
	if err != nil {
		t.Fatal(err)
	}
	walk, tr, err := svc.WalkTrace(ctx, 5, 3, 700)
	if err != nil {
		t.Fatalf("WalkTrace after SingleRandomWalk of the same key: %v", err)
	}
	if cs := svc.Stats().Cache; cs.Misses != 2 || cs.Hits != 0 {
		t.Fatalf("cache served the trace from the single's entry: %d misses, %d hits, want 2 and 0", cs.Misses, cs.Hits)
	}
	if !reflect.DeepEqual(walk, single) {
		t.Fatalf("tracing changed the walk:\ntrace  %+v\nsingle %+v", walk, single)
	}
	checkTrace(t, walk, tr)
	// And the other way round: the single's entry is still served, and a
	// second WalkTrace hits the trace's own entry.
	again, err := svc.SingleRandomWalk(ctx, 5, 3, 700)
	if err != nil {
		t.Fatal(err)
	}
	walk2, tr2, err := svc.WalkTrace(ctx, 5, 3, 700)
	if err != nil {
		t.Fatal(err)
	}
	if cs := svc.Stats().Cache; cs.Misses != 2 || cs.Hits != 2 {
		t.Fatalf("repeat requests: %d misses, %d hits, want 2 and 2", cs.Misses, cs.Hits)
	}
	if !reflect.DeepEqual(again, single) || !reflect.DeepEqual(walk2, walk) || !reflect.DeepEqual(tr2, tr) {
		t.Fatal("cached repeats differ from their executions")
	}
}

// traceDigest folds everything a Trace reports — every node's positions,
// first-visit time and edge, and the regeneration cost — into one value.
func traceDigest(h interface{ Write([]byte) (int, error) }, tr *distwalk.Trace) {
	for v, pos := range positionsOf(tr) {
		fmt.Fprintf(h, "%d:%v:%d:%d;", v, pos, tr.FirstVisitTime[v], tr.FirstVisitFrom[v])
	}
	fmt.Fprintf(h, "cost=%+v covered=%v|", tr.Cost, tr.Covered)
}

// TestRegenerateTracePinned pins regeneration's output bit for bit, at
// one, two and four shards: the traces of RegenerateMany over a
// MANY-RANDOM-WALKS batch (Phase-1 segments replayed forward, naive tails
// too), a WalkTrace whose walk used a GET-MORE-WALKS refill (replayed
// forward like the others) and the parents of RandomSpanningTree (the Aldous–Broder
// first-visit edges of a regenerated covering walk). Each case first
// checks that it reached the path it pins.
func TestRegenerateTracePinned(t *testing.T) {
	torus, err := distwalk.Torus(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	kite, err := distwalk.Candy(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	starved := distwalk.Params{Lambda: 2, LambdaC: 1, Eta: 1, UniformCounts: true}
	ctx := context.Background()
	cases := []struct {
		name string
		run  func(t *testing.T, shards int) uint64
		want uint64
	}{
		{"RegenerateMany", func(t *testing.T, shards int) uint64 {
			w := newWalker(t, torus, 5, distwalk.DefaultParams())
			w.Network().SetShards(shards)
			many, err := w.ManyRandomWalks([]distwalk.NodeID{0, 9, 27, 36, 63}, 1024)
			if err != nil {
				t.Fatal(err)
			}
			stitched := 0
			for _, wr := range many.Walks {
				stitched += len(wr.Segments) - 1
			}
			if many.NaiveFallback || stitched == 0 {
				t.Fatalf("batch replays no Phase-1 segment (naive fallback %v)", many.NaiveFallback)
			}
			traces, err := w.RegenerateMany(many.Walks)
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			for _, tr := range traces {
				traceDigest(h, tr)
			}
			return h.Sum64()
		}, 0x934b0cf05513d3b8},
		{"WalkTraceRefill", func(t *testing.T, shards int) uint64 {
			svc, err := distwalk.NewService(kite, 11, distwalk.WithWorkers(1), distwalk.WithShards(shards))
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()
			walk, tr, err := svc.WalkTrace(ctx, 3, 0, 80, distwalk.WithParams(starved))
			if err != nil {
				t.Fatal(err)
			}
			if walk.Refills == 0 {
				t.Fatal("walk has no GET-MORE-WALKS segment to replay")
			}
			checkTrace(t, walk, tr)
			h := fnv.New64a()
			traceDigest(h, tr)
			return h.Sum64()
		}, 0x28307824c3c14baa},
		{"RandomSpanningTree", func(t *testing.T, shards int) uint64 {
			svc, err := distwalk.NewService(torus, 7, distwalk.WithWorkers(1), distwalk.WithShards(shards))
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()
			res, err := svc.RandomSpanningTree(ctx, 2, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := distwalk.ValidateSpanningTree(torus, 0, res.Parent); err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			fmt.Fprintf(h, "%v len=%d attempts=%d cost=%+v", res.Parent, res.WalkLength, res.Attempts, res.Cost)
			return h.Sum64()
		}, 0x52110592c2d2ddcf},
	}
	for _, c := range cases {
		for _, shards := range []int{1, 2, 4} {
			if got := c.run(t, shards); got != c.want {
				t.Errorf("%s at %d shards: digest %#x, want %#x", c.name, shards, got, c.want)
			}
		}
	}
}

// TestTrailEndpointLaw: the endpoint law is the same with the trail on
// and off. Per key, WalkTrace (trail kept) ends where SingleRandomWalk
// (trail off) does, and both samples pass χ² against the exact ℓ-step
// distribution, on a stitching-heavy parameterization.
func TestTrailEndpointLaw(t *testing.T) {
	const (
		src     = distwalk.NodeID(5)
		ell     = 30
		samples = 2000
	)
	ctx := context.Background()
	g, err := distwalk.Candy(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := distwalk.NewService(g, 9, distwalk.WithWorkers(1), distwalk.WithParams(distwalk.Params{Lambda: 3, LambdaC: 1, Eta: 1}))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	off, on := make([]int, g.N()), make([]int, g.N())
	for key := uint64(0); key < samples; key++ {
		lean, err := svc.SingleRandomWalk(ctx, key, src, ell)
		if err != nil {
			t.Fatal(err)
		}
		walk, tr, err := svc.WalkTrace(ctx, key, src, ell)
		if err != nil {
			t.Fatal(err)
		}
		if walk.Destination != lean.Destination {
			t.Fatalf("key %d: trail on ends at %d, trail off at %d", key, walk.Destination, lean.Destination)
		}
		checkTrace(t, walk, tr)
		off[lean.Destination]++
		on[walk.Destination]++
	}
	exact, err := distwalk.WalkDistribution(g, src, ell)
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range []struct {
		name   string
		counts []int
	}{{"off", off}, {"on", on}} {
		stat, df, err := stats.ChiSquare(run.counts, exact)
		if err != nil {
			t.Fatal(err)
		}
		p, err := stats.ChiSquarePValue(stat, df)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("trail %s: chi2=%.2f df=%d p=%.4f", run.name, stat, df, p)
		if p < 1e-4 {
			t.Fatalf("trail %s: endpoint law rejected: chi2=%v df=%d p=%v counts=%v exact=%v", run.name, stat, df, p, run.counts, exact)
		}
	}
}
