package distwalk

import (
	"context"
	"net"
	"reflect"
	"sync"
	"testing"

	"distwalk/internal/core"
	"distwalk/internal/wire"
)

// TestServiceMatchesDerivedSeedWalker pins the sharding contract: a
// request served by a pooled, reseeded network is bit-identical to a
// fresh single-threaded Walker built with the request's derived seed.
// This is what makes the low-level engine and the service the same
// algorithm, not two.
func TestServiceMatchesDerivedSeedWalker(t *testing.T) {
	g, err := Torus(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	const seed, key = 42, 987
	svc, err := NewService(g, seed, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	got, err := svc.SingleRandomWalk(context.Background(), key, 3, 2048)
	if err != nil {
		t.Fatal(err)
	}
	w, err := core.NewWalker(g, deriveSeed(seed, key), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	want, err := w.SingleRandomWalk(3, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if got.Destination != want.Destination || got.Cost != want.Cost {
		t.Fatalf("service (dest %d, %+v) != derived-seed walker (dest %d, %+v)",
			got.Destination, got.Cost, want.Destination, want.Cost)
	}
}

// TestWorkerWalkerSurvivesMutation: a worker builds its walker once. A
// mutation reshapes the worker's network under it, and the next request
// Resets the same walker onto the new graph instead of replacing it.
func TestWorkerWalkerSurvivesMutation(t *testing.T) {
	ctx := context.Background()
	g, err := Torus(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(g, 42, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	walker := func() *core.Walker {
		ch := make(chan *core.Walker)
		svc.jobs <- func(pw *poolWorker) { ch <- pw.wkr }
		return <-ch
	}
	before := walker()
	if _, err := svc.SingleRandomWalk(ctx, 1, 0, 256); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.ApplyMutations(ctx, Mutations{AddEdges: []EdgeMutation{{U: 0, V: 27}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.SingleRandomWalk(ctx, 2, 0, 256); err != nil {
		t.Fatal(err)
	}
	after := walker()
	if before == nil || after != before {
		t.Fatalf("the worker's walker was replaced across ApplyMutations (%p -> %p)", before, after)
	}
	if after.Graph() != svc.Graph() {
		t.Fatal("the worker's walker does not serve the mutated graph")
	}
	if n := svc.Stats().Mutation.ReshardsFull; n != 1 {
		t.Fatalf("ReshardsFull = %d after one mutation on one worker, want 1", n)
	}
}

// wireEngines serves n engine servers on loopback from this process and
// returns their addresses and the servers; they close with the test.
func wireEngines(t *testing.T, n int) ([]string, []*wire.Server) {
	t.Helper()
	addrs := make([]string, n)
	srvs := make([]*wire.Server, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := wire.NewServer(wire.ServerConfig{PinShard: -1})
		go srv.Serve(ln)
		t.Cleanup(srv.Close)
		addrs[i], srvs[i] = ln.Addr().String(), srv
	}
	return addrs, srvs
}

// TestCountersWorkerInvariant pins the counter blocks against who served
// the requests: shard and engine work is added where it happens, so the
// same request keys give the same totals on one worker or three, and
// dropping a worker's engine sessions mid-sequence (their replacements
// count into the same blocks) neither double-counts nor runs a total
// backwards.
func TestCountersWorkerInvariant(t *testing.T) {
	g, err := Torus(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	engines, _ := wireEngines(t, 2)
	walks := func(t *testing.T, svc *Service, keys []uint64) {
		var wg sync.WaitGroup
		for _, key := range keys {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := svc.SingleRandomWalk(context.Background(), key, 0, 256); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
	}
	// serve runs keys 1..8 on a fresh service; with drop, one worker
	// loses its engine sessions after the first four.
	serve := func(t *testing.T, workers int, drop bool, opts ...Option) ServiceStats {
		svc, err := NewService(g, 42, append(opts, WithWorkers(workers))...)
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		walks(t, svc, []uint64{1, 2, 3, 4})
		if drop {
			before := svc.Stats().Cluster.Engines
			done := make(chan struct{})
			svc.jobs <- func(pw *poolWorker) { svc.cluster.drop(pw.sess, nil); close(done) }
			<-done
			// Closing sends a Goodbye: bytes may grow, nothing else moves.
			for i, a := range svc.Stats().Cluster.Engines {
				b := before[i]
				if a.BytesOut < b.BytesOut || a.BytesIn < b.BytesIn ||
					a.Runs != b.Runs || a.Rounds != b.Rounds || a.MsgsOut != b.MsgsOut || a.MsgsIn != b.MsgsIn {
					t.Fatalf("dropping sessions moved engine %d's totals: %+v then %+v", i, b, a)
				}
			}
		}
		walks(t, svc, []uint64{5, 6, 7, 8})
		return svc.Stats()
	}

	t.Run("shards", func(t *testing.T) {
		one, three := serve(t, 1, false, WithShards(2)), serve(t, 3, false, WithShards(2))
		if one.Shards.Stepped[0] == 0 ||
			!reflect.DeepEqual(one.Shards.Stepped, three.Shards.Stepped) ||
			!reflect.DeepEqual(one.Shards.Delivered, three.Shards.Delivered) {
			t.Fatalf("shard work depends on the worker count:\n1 worker  %+v\n3 workers %+v", one.Shards, three.Shards)
		}
	})
	t.Run("cluster", func(t *testing.T) {
		one := serve(t, 1, false, WithCluster(engines...))
		three := serve(t, 3, true, WithCluster(engines...))
		for i := range engines {
			a, b := one.Cluster.Engines[i], three.Cluster.Engines[i]
			if a.Runs == 0 || a.Runs != b.Runs || a.Rounds != b.Rounds || a.MsgsOut != b.MsgsOut || a.MsgsIn != b.MsgsIn {
				t.Fatalf("engine %d traffic depends on the worker count or a dropped session:\n1 worker  %+v\n3 workers %+v", i, a, b)
			}
		}
	})
}

// TestClusterPinnedRequestRunsOnEngines: a per-key request admitted under
// one generation and run after a mutation runs on the engines against its
// own snapshot (the worker redials with that snapshot's handshake) —
// bit-identical to WithShards(2), with no failover counted.
func TestClusterPinnedRequestRunsOnEngines(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster sessions over TCP skipped in -short mode")
	}
	ctx := context.Background()
	g, err := Torus(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	// pinned admits key 3 under the first generation, publishes a
	// mutation, then runs the request on the snapshot it admitted under.
	pinned := func(t *testing.T, svc *Service) *WalkResult {
		cfg, snap, err := svc.admit(3, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := svc.ApplyMutations(ctx, Mutations{AddEdges: []EdgeMutation{{U: 0, V: 30}}}); err != nil {
			t.Fatal(err)
		}
		res, err := runRequest(ctx, svc, &singleKind, 3, operands{node: 0, ell: 256}, cfg, snap)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	local, err := NewService(g, 42, WithWorkers(1), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	want := pinned(t, local)

	addrs, _ := wireEngines(t, 2)
	clu, err := NewService(g, 42, WithWorkers(1), WithCluster(addrs...))
	if err != nil {
		t.Fatal(err)
	}
	defer clu.Close()
	got := pinned(t, clu)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("pinned request diverged from in-process:\n  cluster: dest=%d %+v\n  local:   dest=%d %+v",
			got.Destination, got.Cost, want.Destination, want.Cost)
	}
	st := clu.Stats().Cluster
	runs := int64(0)
	for _, e := range st.Engines {
		runs += e.Runs
	}
	if st.Failovers != 0 || runs == 0 {
		t.Fatalf("pinned request did not run on the engines, or counted as a failover: %+v", st)
	}
}

// TestClusterSessionsFollowSnapshot pins what a worker's sessions cost
// when the published graph changes, counted by the servers' accepted
// sessions (1 worker, 2 engines): an InvalidateCache republishes the
// same graph and opens none; the first request after a mutation opens 2;
// a request admitted before that mutation and run after it opens 2 (its
// snapshot is the old graph), and the next current request 2 more. Every
// result equals its WithShards(2) twin's.
func TestClusterSessionsFollowSnapshot(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster sessions over TCP skipped in -short mode")
	}
	ctx := context.Background()
	g, err := Torus(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	addrs, srvs := wireEngines(t, 2)
	sessions := func() (n int64) {
		for _, srv := range srvs {
			n += srv.Metrics().Sessions.Load()
		}
		return n
	}
	var (
		staleCfg  *config
		staleSnap *topology
	)
	type step struct {
		name string
		do   func(t *testing.T, svc *Service) *WalkResult
		dial int64 // sessions the step opens
	}
	walk := func(key uint64) func(*testing.T, *Service) *WalkResult {
		return func(t *testing.T, svc *Service) *WalkResult {
			res, err := svc.SingleRandomWalk(ctx, key, 0, 256)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
	}
	steps := []step{
		{"first request", walk(1), 0},
		{"invalidate cache", func(t *testing.T, svc *Service) *WalkResult {
			if err := svc.InvalidateCache(); err != nil {
				t.Fatal(err)
			}
			return walk(2)(t, svc)
		}, 0},
		{"mutation", func(t *testing.T, svc *Service) *WalkResult {
			// Key 4 admits before the mutation and runs in the next step.
			if staleCfg, staleSnap, err = svc.admit(4, nil); err != nil {
				t.Fatal(err)
			}
			if _, err := svc.ApplyMutations(ctx, Mutations{AddEdges: []EdgeMutation{{U: 0, V: 30}}}); err != nil {
				t.Fatal(err)
			}
			return walk(3)(t, svc)
		}, 2},
		{"stale request", func(t *testing.T, svc *Service) *WalkResult {
			res, err := runRequest(ctx, svc, &singleKind, 4, operands{node: 0, ell: 256}, staleCfg, staleSnap)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}, 2},
		{"next current request", walk(5), 2},
	}
	run := func(t *testing.T, opts ...Option) []*WalkResult {
		svc, err := NewService(g, 42, append(opts, WithWorkers(1), WithResultCache(1<<20))...)
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		out := make([]*WalkResult, len(steps))
		for i, st := range steps {
			before := sessions()
			out[i] = st.do(t, svc)
			if opened := sessions() - before; svc.cluster != nil && opened != st.dial {
				t.Fatalf("%s opened %d sessions, want %d", st.name, opened, st.dial)
			}
		}
		return out
	}
	want := run(t, WithShards(2))
	got := run(t, WithCluster(addrs...))
	for i, st := range steps {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s diverged from in-process:\n  cluster: dest=%d %+v\n  local:   dest=%d %+v",
				st.name, got[i].Destination, got[i].Cost, want[i].Destination, want[i].Cost)
		}
	}
}
