// Micro-benchmarks of the individual algorithms. Simulated rounds per
// operation are the quantity the paper bounds, so they are reported as a
// custom metric alongside wall time: a regression in round complexity
// shows even when wall time does not move. (The paper's claims themselves
// are tests — README "Claims" — and timing has one harness,
// `go run ./benchmark`.)
//
// Run everything with:
//
//	go test -bench=. -benchmem ./...
package distwalk_test

import (
	"context"
	"fmt"
	"strconv"
	"testing"

	"distwalk"
	"distwalk/internal/core"
	"distwalk/internal/mixing"
	"distwalk/internal/spanning"
)

func benchGraph(b *testing.B) *distwalk.Graph {
	b.Helper()
	g, err := distwalk.Torus(16, 16)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func BenchmarkSingleRandomWalk(b *testing.B) {
	for _, ell := range []int{1 << 12, 1 << 14} {
		b.Run(benchName("ell", ell), func(b *testing.B) {
			g := benchGraph(b)
			rounds := 0
			for i := 0; i < b.N; i++ {
				w, err := core.NewWalker(g, uint64(i), distwalk.DefaultParams())
				if err != nil {
					b.Fatal(err)
				}
				res, err := w.SingleRandomWalk(0, ell)
				if err != nil {
					b.Fatal(err)
				}
				rounds += res.Cost.Rounds
			}
			b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
		})
	}
}

func BenchmarkNaiveWalk(b *testing.B) {
	g := benchGraph(b)
	const ell = 1 << 12
	rounds := 0
	for i := 0; i < b.N; i++ {
		w, err := core.NewWalker(g, uint64(i), distwalk.DefaultParams())
		if err != nil {
			b.Fatal(err)
		}
		res, err := w.NaiveWalk(0, ell)
		if err != nil {
			b.Fatal(err)
		}
		rounds += res.Cost.Rounds
	}
	b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
}

func BenchmarkManyRandomWalks(b *testing.B) {
	for _, k := range []int{4, 16} {
		b.Run(benchName("k", k), func(b *testing.B) {
			g := benchGraph(b)
			sources := make([]distwalk.NodeID, k)
			rounds := 0
			for i := 0; i < b.N; i++ {
				w, err := core.NewWalker(g, uint64(i), distwalk.DefaultParams())
				if err != nil {
					b.Fatal(err)
				}
				res, err := w.ManyRandomWalks(sources, 1<<12)
				if err != nil {
					b.Fatal(err)
				}
				rounds += res.Cost.Rounds
			}
			b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
		})
	}
}

func BenchmarkRandomSpanningTree(b *testing.B) {
	g := benchGraph(b)
	rounds := 0
	for i := 0; i < b.N; i++ {
		w, err := core.NewWalker(g, uint64(i), distwalk.DefaultParams())
		if err != nil {
			b.Fatal(err)
		}
		res, err := spanning.RandomSpanningTree(w, 0, distwalk.RSTOptions{})
		if err != nil {
			b.Fatal(err)
		}
		rounds += res.Cost.Rounds
	}
	b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
}

func BenchmarkEstimateMixingTime(b *testing.B) {
	g, err := distwalk.RandomRegular(64, 4, 9)
	if err != nil {
		b.Fatal(err)
	}
	rounds := 0
	for i := 0; i < b.N; i++ {
		w, err := core.NewWalker(g, uint64(i), distwalk.DefaultParams())
		if err != nil {
			b.Fatal(err)
		}
		est, err := mixing.EstimateTau(w, 0, distwalk.MixingOptions{})
		if err != nil {
			b.Fatal(err)
		}
		rounds += est.Cost.Rounds
	}
	b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
}

// BenchmarkCacheHit is the result-cache hit path through the Service:
// admission, request digest, sharded-LRU lookup and the deep copy, with
// the engine doing none of the work. single is cache-churn's hit
// (SingleRandomWalk ℓ=64 on Torus(48,48)), many is cache-hot's
// (ManyRandomWalks k=8 ℓ=1024 on Torus(16,16)).
func BenchmarkCacheHit(b *testing.B) {
	for _, tc := range []struct {
		name string
		side int
		k    int // 0: SingleRandomWalk
		ell  int
	}{
		{"single", 48, 0, 64},
		{"many", 16, 8, 1024},
	} {
		b.Run(tc.name, func(b *testing.B) {
			g, err := distwalk.Torus(tc.side, tc.side)
			if err != nil {
				b.Fatal(err)
			}
			svc, err := distwalk.NewService(g, 1, distwalk.WithWorkers(1), distwalk.WithResultCache(64<<20))
			if err != nil {
				b.Fatal(err)
			}
			defer svc.Close()
			sources := make([]distwalk.NodeID, tc.k)
			for i := range sources {
				sources[i] = distwalk.NodeID(i * g.N() / len(sources))
			}
			ctx := context.Background()
			hit := func() (err error) {
				if tc.k == 0 {
					_, err = svc.SingleRandomWalk(ctx, 0, 0, tc.ell)
				} else {
					_, err = svc.ManyRandomWalks(ctx, 0, sources, tc.ell)
				}
				return err
			}
			if err := hit(); err != nil {
				b.Fatal(err) // the miss that stores the entry
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := hit(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if st := svc.Stats().Cache; st.Misses != 1 {
				b.Fatalf("%d cache misses, want only the first call's", st.Misses)
			}
		})
	}
}

// BenchmarkClusterVsInProcess is the cluster crossover table: the
// cluster-walks request (ManyRandomWalks, k=8, ℓ=1024) on growing tori,
// over two loopback wire servers and on WithShards(2) in process. The
// cluster ÷ in-process ns/op ratio per torus says whether cluster mode
// pays anywhere; rounds/op is the same in both modes.
func BenchmarkClusterVsInProcess(b *testing.B) {
	for _, side := range []int{16, 48, 96} {
		g, err := distwalk.Torus(side, side)
		if err != nil {
			b.Fatal(err)
		}
		sources := make([]distwalk.NodeID, 8)
		for i := range sources {
			sources[i] = distwalk.NodeID(i * g.N() / len(sources))
		}
		for _, mode := range []string{"cluster", "inprocess"} {
			b.Run(fmt.Sprintf("torus=%d/%s", side, mode), func(b *testing.B) {
				opt := distwalk.WithShards(2)
				if mode == "cluster" {
					opt = distwalk.WithCluster(startWireServers(b, 2)...)
				}
				svc, err := distwalk.NewService(g, 1, distwalk.WithWorkers(1), opt)
				if err != nil {
					b.Fatal(err)
				}
				defer svc.Close()
				if _, err := svc.ManyRandomWalks(context.Background(), 0, sources, 1024); err != nil {
					b.Fatal(err) // warm-up: sessions dialed, slabs grown
				}
				rounds := 0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := svc.ManyRandomWalks(context.Background(), uint64(i%8), sources, 1024)
					if err != nil {
						b.Fatal(err)
					}
					rounds += res.Cost.Rounds
				}
				b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
			})
		}
	}
}

func benchName(key string, v int) string {
	return key + "=" + strconv.Itoa(v)
}
