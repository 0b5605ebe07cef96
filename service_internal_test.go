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
	var engines []string
	for range 2 {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := wire.NewServer(wire.ServerConfig{PinShard: -1})
		go srv.Serve(ln)
		t.Cleanup(srv.Close)
		engines = append(engines, ln.Addr().String())
	}
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
			svc.jobs <- func(pw *poolWorker) { svc.dropClusterConns(pw, nil); close(done) }
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
