package core

import (
	"testing"

	"distwalk/internal/graph"
	"distwalk/internal/stats"
)

// TestLengthKeyIsNoHopKey: a Phase 1 walk's length draw is keyed like its
// hop at step −1, which no hop takes, so the length is never one of the
// walk's own hop draws; nor is it any hop draw of the walks minted around
// it.
func TestLengthKeyIsNoHopKey(t *testing.T) {
	const seedMix, hops = 0x5eed, 1024
	hopKeys := map[uint64]bool{}
	var walks []uint64
	for owner := int64(0); owner < 16; owner++ {
		for seq := int64(0); seq < 16; seq++ {
			walk := walkKey(seedMix, owner<<32|seq)
			walks = append(walks, walk)
			for j := int32(0); j < hops; j++ {
				hopKeys[hopKey(walk, j)] = true
			}
		}
	}
	for _, walk := range walks {
		if hopKeys[lengthKey(walk)] {
			t.Fatalf("walk key %#x: the length key is a hop key", walk)
		}
	}
}

// TestStitchKeyDoesNotAlias: SAMPLE-DESTINATION's pick at node u in stitch
// s draws from (seed, s, u), and a merge adds the child's candidate walk.
// No stitch key is a walk key, and a packed key such as s·n + u would let
// stitch s+1 at node u repeat stitch s at node u+n; here the picks of
// neighbouring (stitch, node) pairs agree only by chance. The draws must
// also change with the seed.
func TestStitchKeyDoesNotAlias(t *testing.T) {
	const seedMix, stitches, nodes = 0x5eed, 512, 64
	walks := map[uint64]bool{}
	for owner := int64(0); owner < nodes; owner++ {
		for seq := int64(0); seq < stitches; seq++ {
			walks[walkKey(seedMix, owner<<32|seq)] = true
		}
	}
	seen := map[uint64]bool{}
	for s := uint64(0); s < stitches; s++ {
		key := stitchKey(seedMix, s)
		if walks[key] {
			t.Fatalf("stitch %d shares a walk's key", s)
		}
		for u := uint64(0); u < nodes; u++ {
			pick := fold(key, u)
			merge := fold(pick, u<<32|s) // a candidate walk ID
			if seen[pick] || seen[merge] || pick == merge {
				t.Fatalf("stitch %d node %d: a pick or merge key repeats", s, u)
			}
			seen[pick], seen[merge] = true, true
		}
	}
	pick := func(seedMix, s, u uint64) uint64 { return bounded(fold(stitchKey(seedMix, s), u), 4) }
	same, pairs := 0, 0
	for s := uint64(0); s+1 < stitches; s++ {
		for u := uint64(1); u < nodes; u++ {
			pairs++
			if pick(seedMix, s, u) == pick(seedMix, s+1, u-1) {
				same++
			}
		}
	}
	if share := float64(same) / float64(pairs); share > 0.3 {
		t.Errorf("stitch s+1 at node u−1 repeats stitch s at node u in %d of %d pairs, want about 1/4", same, pairs)
	}
	same = 0
	for s := uint64(0); s < stitches; s++ {
		if pick(seedMix, s, 7) == pick(seedMix+1, s, 7) {
			same++
		}
	}
	if same > stitches*3/10 {
		t.Errorf("under another seed node 7 repeats %d of its %d picks, want about 1/4", same, stitches)
	}
}

// TestPhase1LengthsUniform: Phase 1's short walks have length λ + r with r
// uniform on [0, λ−1] (Lemma 2.4), drawn from each walk's length key.
// Chi-square the coupon lengths of one Phase 1.
func TestPhase1LengthsUniform(t *testing.T) {
	g, err := graph.Torus(16, 16)
	if err != nil {
		t.Fatal(err)
	}
	prm := DefaultParams()
	prm.Eta = 8
	w := newWalker(t, g, 7, prm)
	const lambda = 8
	if _, err := phase1With(w, lambda, nil); err != nil {
		t.Fatal(err)
	}
	counts := make([]int, lambda) // index length−λ
	total := 0
	for v := range w.st.coupons {
		for _, c := range w.st.coupons[v].list {
			if c.length < lambda || c.length >= 2*lambda {
				t.Fatalf("coupon length %d outside [%d, %d]", c.length, lambda, 2*lambda-1)
			}
			counts[c.length-lambda]++
			total++
		}
	}
	if want := g.N() * 4 * prm.Eta; total != want {
		t.Fatalf("Phase 1 stored %d coupons, want %d", total, want)
	}
	p, err := stats.UniformityPValue(counts)
	if err != nil {
		t.Fatal(err)
	}
	if p < 1e-4 {
		t.Fatalf("Phase 1 lengths not uniform: %v (p=%v)", counts, p)
	}
}
