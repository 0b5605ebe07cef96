package core

import (
	"fmt"
	"testing"

	"distwalk/internal/graph"
)

// BenchmarkShardedWalk is the in-process sharding crossover table: the
// benchmark's seq-walks / shard-walks request (SingleRandomWalk ℓ=1024 on
// a warm walker, Reset + Reseed per op) on three torus sizes at S = 1, 2
// and 4. S÷S1 is a sub-benchmark's ns/op over the S=1 row of the same
// size, so below 1 the barrier pays for itself; rounds/op is the
// simulated cost and must not depend on S. README "When it pays" records
// the table from the 2-CPU box; S=4 there has more parties than Ps and
// shows the park path.
func BenchmarkShardedWalk(b *testing.B) {
	for _, side := range []int{16, 48, 96} {
		g, err := graph.Torus(side, side)
		if err != nil {
			b.Fatal(err)
		}
		var s1 float64 // ns/op of this size's S=1 row
		for _, shards := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("torus%dx%d/S=%d", side, side, shards), func(b *testing.B) {
				w, err := NewWalker(g, 1, DefaultParams())
				if err != nil {
					b.Fatal(err)
				}
				w.Network().SetShards(shards)
				benchWalk(b, w, 0) // grow the slabs
				rounds := 0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					rounds += benchWalk(b, w, uint64(i+1))
				}
				nsPerOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
				if shards == 1 {
					s1 = nsPerOp
				}
				if s1 > 0 { // a -bench filter may have skipped the S=1 row
					b.ReportMetric(nsPerOp/s1, "S÷S1")
				}
				b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
			})
		}
	}
}
