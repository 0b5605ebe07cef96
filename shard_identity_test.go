package distwalk_test

// Sequential-vs-sharded bit-identity: a service whose workers run their
// simulated networks on S parallel shards (WithShards) must produce, for
// every request key, exactly the results and simulated cost counters of
// the plain sequential engine — sharding is a wall-clock optimization with
// no observable footprint. These tests run the full stack (Service ->
// core walk algorithms -> spanning/mixing drivers -> sharded CONGEST
// engine) concurrently at 2, 4 and 8 shards and compare bit for bit; CI
// runs them under -race -count=2, which also proves the shard barrier
// discipline and the per-node protocol state discipline are data-race
// free. They do not need (and do not skip below) a matching CPU count:
// correctness must hold on any GOMAXPROCS; only the wall-clock speedup
// assertion below self-skips.

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"distwalk"
)

// shardWorkload runs one request against a service and returns a
// comparable digest of everything observable: outputs plus exact cost.
type shardWorkload struct {
	name string
	run  func(svc *distwalk.Service, key uint64) (string, error)
}

func shardWorkloads() []shardWorkload {
	ctx := context.Background()
	return []shardWorkload{
		{"SingleRandomWalk", func(svc *distwalk.Service, key uint64) (string, error) {
			res, err := svc.SingleRandomWalk(ctx, key, 0, 1024)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("dest=%d len=%d refills=%d cost=%+v", res.Destination, res.Length, res.Refills, res.Cost), nil
		}},
		{"ManyRandomWalks", func(svc *distwalk.Service, key uint64) (string, error) {
			sources := make([]distwalk.NodeID, 6)
			for i := range sources {
				sources[i] = distwalk.NodeID(i * 7 % svc.Graph().N())
			}
			res, err := svc.ManyRandomWalks(ctx, key, sources, 512)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("dests=%v refills=%d cost=%+v", res.Destinations, res.Refills, res.Cost), nil
		}},
		{"WalkTrace", func(svc *distwalk.Service, key uint64) (string, error) {
			walk, trace, err := svc.WalkTrace(ctx, key, 3, 512)
			if err != nil {
				return "", err
			}
			sum := int64(0)
			positions := positionsOf(trace)
			for v, ft := range trace.FirstVisitTime {
				sum += int64(ft)*31 + int64(trace.FirstVisitFrom[v])
				for _, p := range positions[v] {
					sum = sum*3 + int64(p)
				}
			}
			return fmt.Sprintf("dest=%d visits=%d cost=%+v tcost=%+v", walk.Destination, sum, walk.Cost, trace.Cost), nil
		}},
		{"RefillWalks", func(svc *distwalk.Service, key uint64) (string, error) {
			// Deliberately under-provisioned Phase 1 forces GET-MORE-WALKS
			// refills: Phase 1 runs started by one connector, interleaved
			// with the stitches, under sharded stepping.
			p := distwalk.DefaultParams()
			p.UniformCounts = true
			p.Lambda = 48
			sources := make([]distwalk.NodeID, 8)
			res, err := svc.ManyRandomWalks(ctx, key, sources, 512, distwalk.WithParams(p))
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("dests=%v refills=%d cost=%+v", res.Destinations, res.Refills, res.Cost), nil
		}},
		{"RandomSpanningTree", func(svc *distwalk.Service, key uint64) (string, error) {
			res, err := svc.RandomSpanningTree(ctx, key, 0)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("parents=%v cost=%+v", res.Parent, res.Cost), nil
		}},
		{"EstimateMixingTime", func(svc *distwalk.Service, key uint64) (string, error) {
			est, err := svc.EstimateMixingTime(ctx, key, 0, distwalk.WithMixingOptions(distwalk.MixingOptions{Samples: 24, MaxEll: 256}))
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("tau=%d cost=%+v", est.Tau, est.Cost), nil
		}},
	}
}

func testShardIdentity(t *testing.T, shards int) {
	torus, err := distwalk.Torus(12, 12)
	if err != nil {
		t.Fatal(err)
	}
	regular, err := distwalk.RandomRegular(48, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	graphs := map[string]*distwalk.Graph{"torus12x12": torus, "regular48x4": regular}
	for gname, g := range graphs {
		t.Run(gname, func(t *testing.T) {
			seq, err := distwalk.NewService(g, 42, distwalk.WithWorkers(2))
			if err != nil {
				t.Fatal(err)
			}
			defer seq.Close()
			shd, err := distwalk.NewService(g, 42, distwalk.WithWorkers(2), distwalk.WithShards(shards))
			if err != nil {
				t.Fatal(err)
			}
			defer shd.Close()
			if got := shd.Shards(); got != shards {
				t.Fatalf("Shards() = %d, want %d", got, shards)
			}

			// All (workload, key) pairs fire concurrently against both
			// services: per-key determinism must hold regardless of worker
			// scheduling AND of the shard interleaving inside each worker.
			type outcome struct {
				name string
				key  uint64
				seq  string
				shd  string
			}
			var (
				mu   sync.Mutex
				outs []outcome
				wg   sync.WaitGroup
			)
			for _, wl := range shardWorkloads() {
				for key := uint64(1); key <= 2; key++ {
					wg.Add(1)
					go func(wl shardWorkload, key uint64) {
						defer wg.Done()
						a, errA := wl.run(seq, key)
						b, errB := wl.run(shd, key)
						if errA != nil || errB != nil {
							t.Errorf("%s key %d: sequential err %v, sharded err %v", wl.name, key, errA, errB)
							return
						}
						mu.Lock()
						outs = append(outs, outcome{wl.name, key, a, b})
						mu.Unlock()
					}(wl, key)
				}
			}
			wg.Wait()
			for _, o := range outs {
				if o.seq != o.shd {
					t.Errorf("%s key %d diverged:\n  sequential: %s\n  sharded(%d): %s", o.name, o.key, o.seq, shards, o.shd)
				}
			}

			// The sharded service accounted its per-shard work.
			st := shd.Stats()
			if st.Shards.Shards != shards || len(st.Shards.Stepped) != shards {
				t.Fatalf("sharded Stats().Shards = %+v, want %d shards", st.Shards, shards)
			}
			var stepped int64
			for _, s := range st.Shards.Stepped {
				stepped += s
			}
			if stepped == 0 {
				t.Fatal("sharded Stats() recorded no per-shard steps")
			}
			if seqSt := seq.Stats(); seqSt.Shards.Shards != 0 {
				t.Fatalf("sequential Stats().Shards = %+v, want zero", seqSt.Shards)
			}
		})
	}
}

func TestShardIdentity2(t *testing.T) { testShardIdentity(t, 2) }
func TestShardIdentity4(t *testing.T) { testShardIdentity(t, 4) }
func TestShardIdentity8(t *testing.T) { testShardIdentity(t, 8) }

// testShardIdentityFaulty is the crash-variant of the bit-identity
// contract: with a fault plan installed (a crash, churn windows, lossy and
// slow links), every request must produce identical results, identical
// FaultStats (embedded in cost=%+v) and — for requests the faults kill —
// the identical typed error text at every shard count. Retries are on,
// so the retry layer's salted re-seeding is covered by the identity
// check too.
func testShardIdentityFaulty(t *testing.T, shards int) {
	g, err := distwalk.Torus(12, 12)
	if err != nil {
		t.Fatal(err)
	}
	plan := &distwalk.FaultPlan{
		Seed:    77,
		Crashes: []distwalk.FaultCrash{{Node: 100, Round: 260}},
		Churn: []distwalk.FaultChurn{
			{Node: 37, From: 40, To: 160},
			{Node: 88, From: 90, To: 140},
		},
		LinkDrops: []distwalk.FaultLinkDrop{
			{From: 0, To: g.Neighbors(0)[0].To, Prob: 0.05},
			{From: 70, To: g.Neighbors(70)[1].To, Prob: 0.1},
		},
		LinkDelays: []distwalk.FaultLinkDelay{
			{From: 30, To: g.Neighbors(30)[0].To, Rounds: 1},
		},
	}
	build := func(opts ...distwalk.Option) *distwalk.Service {
		svc, err := distwalk.NewService(g, 42, append([]distwalk.Option{
			distwalk.WithWorkers(2),
			distwalk.WithFaultPlan(plan),
			distwalk.WithRetry(2),
		}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		return svc
	}
	seq := build()
	defer seq.Close()
	shd := build(distwalk.WithShards(shards))
	defer shd.Close()

	ctx := context.Background()
	workloads := []shardWorkload{
		{"SingleRandomWalk", func(svc *distwalk.Service, key uint64) (string, error) {
			res, err := svc.SingleRandomWalk(ctx, key, 0, 768)
			if err != nil {
				return "err=" + err.Error(), nil
			}
			return fmt.Sprintf("dest=%d len=%d cost=%+v", res.Destination, res.Length, res.Cost), nil
		}},
		{"ManyRandomWalks", func(svc *distwalk.Service, key uint64) (string, error) {
			sources := make([]distwalk.NodeID, 6)
			for i := range sources {
				sources[i] = distwalk.NodeID(i * 19 % svc.Graph().N())
			}
			res, err := svc.ManyRandomWalks(ctx, key, sources, 512)
			if err != nil {
				return "err=" + err.Error(), nil
			}
			return fmt.Sprintf("dests=%v cost=%+v", res.Destinations, res.Cost), nil
		}},
		{"RandomSpanningTree", func(svc *distwalk.Service, key uint64) (string, error) {
			res, err := svc.RandomSpanningTree(ctx, key, 0)
			if err != nil {
				return "err=" + err.Error(), nil
			}
			return fmt.Sprintf("parents=%v cost=%+v", res.Parent, res.Cost), nil
		}},
		{"EstimateMixingTime", func(svc *distwalk.Service, key uint64) (string, error) {
			est, err := svc.EstimateMixingTime(ctx, key, 0, distwalk.WithMixingOptions(distwalk.MixingOptions{Samples: 16, MaxEll: 128}))
			if err != nil {
				return "err=" + err.Error(), nil
			}
			return fmt.Sprintf("tau=%d cost=%+v", est.Tau, est.Cost), nil
		}},
	}

	sawFault := false
	for _, wl := range workloads {
		for key := uint64(1); key <= 3; key++ {
			a, _ := wl.run(seq, key)
			b, _ := wl.run(shd, key)
			if a != b {
				t.Errorf("%s key %d diverged under faults:\n  sequential: %s\n  sharded(%d): %s", wl.name, key, a, shards, b)
			}
			if strings.Contains(a, "err=") || strings.Contains(a, "LinkDropped:") && !strings.Contains(a, "LinkDropped:0") {
				sawFault = true
			}
		}
	}
	// The retry layer's counters are deterministic per key, so the totals
	// must be shard-invariant too.
	if a, b := seq.Stats().Retry, shd.Stats().Retry; a != b {
		t.Errorf("retry counters diverged: sequential %+v, sharded(%d) %+v", a, shards, b)
	}
	if seq.Stats().Retry.Faults == 0 && !sawFault {
		t.Error("fault plan left no observable trace; the scenario needs retuning")
	}
}

func TestShardIdentityFaulty2(t *testing.T) { testShardIdentityFaulty(t, 2) }
func TestShardIdentityFaulty4(t *testing.T) { testShardIdentityFaulty(t, 4) }
func TestShardIdentityFaulty8(t *testing.T) { testShardIdentityFaulty(t, 8) }

// batchedBursts runs two exactly-full SubmitWalk bursts (the second on
// the warm worker) on a one-worker batching service built with opts, and
// digests everything a member can observe: walk, and the batch's seed,
// size and cost.
func batchedBursts(t *testing.T, g *distwalk.Graph, opts ...distwalk.Option) (string, distwalk.ServiceStats) {
	t.Helper()
	ctx := context.Background()
	opts = append([]distwalk.Option{distwalk.WithWorkers(1), distwalk.WithBatching(4, time.Minute)}, opts...)
	svc, err := distwalk.NewService(g, 42, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	out := ""
	for burst, ell := range []int{512, 384} {
		handles := make([]*distwalk.WalkHandle, 4)
		for i := range handles {
			h, err := svc.SubmitWalk(ctx, uint64(10*burst+i), distwalk.NodeID(7*i), ell)
			if err != nil {
				t.Fatal(err)
			}
			handles[i] = h
		}
		for _, h := range handles {
			res, err := h.Result()
			if err != nil {
				t.Fatal(err)
			}
			out += fmt.Sprintf("%d/%+v", res.Destination, res.Cost)
			b := h.Batch()
			out += fmt.Sprintf("/%d:%d:%+v:%+v;", b.Seed, b.Size, b.Cost, b.Amortized)
		}
	}
	return out, svc.Stats()
}

// TestShardIdentityBatched pins that the batching scheduler composes with
// sharded workers: a coalesced batch executes bit-identically on sharded
// and sequential pools.
func TestShardIdentityBatched(t *testing.T) {
	g, err := distwalk.Torus(12, 12)
	if err != nil {
		t.Fatal(err)
	}
	seq, _ := batchedBursts(t, g)
	for _, shards := range []int{2, 4} {
		if got, _ := batchedBursts(t, g, distwalk.WithShards(shards)); got != seq {
			t.Errorf("batched run diverged at %d shards:\n  sequential: %s\n  sharded: %s", shards, seq, got)
		}
	}
}

// TestShardedWallClockSpeedup is the perf acceptance gate: on a large
// graph, one sharded request must not be slower than the sequential
// engine when real parallelism is available. Self-skips below 4 CPUs and
// under -race, like TestServiceParallelSpeedup.
func TestShardedWallClockSpeedup(t *testing.T) {
	if raceEnabled {
		t.Skip("wall-clock comparison is not meaningful under the race detector's overhead")
	}
	if runtime.GOMAXPROCS(0) < 4 {
		t.Skipf("need >= 4 CPUs for a meaningful comparison, have %d", runtime.GOMAXPROCS(0))
	}
	if testing.Short() {
		t.Skip("large-graph wall-clock comparison skipped in -short mode")
	}
	g, err := distwalk.Torus(48, 48)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	measure := func(opts ...distwalk.Option) time.Duration {
		opts = append([]distwalk.Option{distwalk.WithWorkers(1)}, opts...)
		svc, err := distwalk.NewService(g, 42, opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		sources := make([]distwalk.NodeID, 8)
		run := func(key uint64) time.Duration {
			start := time.Now()
			if _, err := svc.ManyRandomWalks(ctx, key, sources, 2048); err != nil {
				t.Fatal(err)
			}
			return time.Since(start)
		}
		run(1) // warm-up: queue and inbox slabs, tree
		best := run(2)
		if d := run(2); d < best {
			best = d
		}
		return best
	}
	serial := measure()
	sharded := measure(distwalk.WithShards(4))
	t.Logf("sequential %v, sharded(4) %v (%.2fx)", serial, sharded, float64(serial)/float64(sharded))
	// The expectation is sharded <= sequential; the 10% allowance absorbs
	// shared-runner scheduling noise (best-of-2 runs on a 4-vCPU CI box
	// still jitter by a few percent), the same reason the bench gate
	// treats ns/op-only failures as retryable.
	if float64(sharded) > 1.10*float64(serial) {
		t.Fatalf("sharded execution slower than sequential on %d CPUs: %v vs %v (>10%% over)", runtime.GOMAXPROCS(0), sharded, serial)
	}
}
