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

func benchName(key string, v int) string {
	return key + "=" + strconv.Itoa(v)
}
