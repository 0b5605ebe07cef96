// Benchmarks, one per reproduction experiment (`walkbench -list` prints the
// index):
// each BenchmarkE* regenerates the corresponding table/series at small
// scale, and the micro-benchmarks below report simulated rounds/op for the
// individual algorithms so regressions in round complexity (not just wall
// time) are visible.
//
// Run everything with:
//
//	go test -bench=. -benchmem ./...
package distwalk_test

import (
	"io"
	"strconv"
	"testing"

	"distwalk"
	"distwalk/internal/core"
	"distwalk/internal/experiments"
	"distwalk/internal/mixing"
	"distwalk/internal/spanning"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	for i := 0; i < b.N; i++ {
		cfg := experiments.Config{Seed: 42, Scale: experiments.Small, Out: io.Discard}
		if err := experiments.Run(e, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1SingleWalkScaling(b *testing.B)           { benchExperiment(b, "E1") }
func BenchmarkE2DiameterDependence(b *testing.B)          { benchExperiment(b, "E2") }
func BenchmarkE3VisitBound(b *testing.B)                  { benchExperiment(b, "E3") }
func BenchmarkE4ConnectorBound(b *testing.B)              { benchExperiment(b, "E4") }
func BenchmarkE5ManyWalks(b *testing.B)                   { benchExperiment(b, "E5") }
func BenchmarkE6PathVerification(b *testing.B)            { benchExperiment(b, "E6") }
func BenchmarkE7RandomSpanningTree(b *testing.B)          { benchExperiment(b, "E7") }
func BenchmarkE8MixingTime(b *testing.B)                  { benchExperiment(b, "E8") }
func BenchmarkE9EndpointDistribution(b *testing.B)        { benchExperiment(b, "E9") }
func BenchmarkE10RandomLengthAblation(b *testing.B)       { benchExperiment(b, "E10") }
func BenchmarkE11DegreeProportionalAblation(b *testing.B) { benchExperiment(b, "E11") }
func BenchmarkE12MetropolisHastings(b *testing.B)         { benchExperiment(b, "E12") }

// Micro-benchmarks: simulated rounds per operation are the quantity the
// paper bounds, so they are reported as a custom metric alongside wall
// time.

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
