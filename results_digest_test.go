package distwalk_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"distwalk"
)

// resultsDigestWant is TestResultsDigest's hash. It pins what the
// algorithms return, not what they cost: a change to the cost model
// (which sweeps run, how many rounds they take) must leave it alone.
const resultsDigestWant = "4b9baf2bbf94172f"

// TestResultsDigest hashes every field of the Service's results except
// the simulated cost — Cost, and the round attribution of WalkResult's
// Breakdown.Stitch — on two graphs × three service seeds. It covers the
// stitched single walk (shared tree and per-call BFS), k walks from the tree root, k walks from foreign
// sources, a refill-heavy k-walk, the trace, the spanning tree and the
// mixing-time estimate. Destinations, segments, walk IDs, traces and
// trees are a function of the random draws alone, so a change that only
// removes sweeps keeps this digest.
func TestResultsDigest(t *testing.T) {
	ctx := context.Background()
	torus, err := distwalk.Torus(9, 9)
	if err != nil {
		t.Fatal(err)
	}
	regular, err := distwalk.RandomRegular(64, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	// Under-provisioned Phase 1: GET-MORE-WALKS runs mid-walk.
	refill := distwalk.DefaultParams()
	refill.UniformCounts = true
	refill.Lambda = 16
	// Algorithm 3 as written: a fresh BFS tree per SAMPLE-DESTINATION.
	perCall := distwalk.DefaultParams()
	perCall.PerCallBFS = true
	d := resultHasher{fnv.New64a()}
	for _, g := range []*distwalk.Graph{torus, regular} {
		for _, seed := range []uint64{1, 2, 3} {
			svc, err := distwalk.NewService(g, seed, distwalk.WithWorkers(1))
			if err != nil {
				t.Fatal(err)
			}
			single, err := svc.SingleRandomWalk(ctx, 1, 0, 1024)
			if err != nil {
				t.Fatal(err)
			}
			if single.Naive || len(single.Segments) < 3 {
				t.Fatalf("seed %d: single walk did not stitch: %d segments", seed, len(single.Segments))
			}
			d.walk(single)
			literal, err := svc.SingleRandomWalk(ctx, 8, 7, 1024, distwalk.WithParams(perCall))
			if err != nil {
				t.Fatal(err)
			}
			d.walk(literal)
			refills := 0
			for i, c := range []struct {
				sources []distwalk.NodeID
				opts    []distwalk.Option
			}{
				{make([]distwalk.NodeID, 4), nil},
				{[]distwalk.NodeID{0, 9, 27, 63}, nil},
				{[]distwalk.NodeID{5, 0, 5, 40, 17, 0}, []distwalk.Option{distwalk.WithParams(refill)}},
			} {
				many, err := svc.ManyRandomWalks(ctx, uint64(2+i), c.sources, 1024, c.opts...)
				if err != nil {
					t.Fatal(err)
				}
				if many.NaiveFallback {
					t.Fatalf("seed %d: k-walk %d took the naive path", seed, i)
				}
				refills += many.Refills
				d.many(many)
			}
			if refills == 0 {
				t.Fatalf("seed %d: no k-walk refilled", seed)
			}
			walk, trace, err := svc.WalkTrace(ctx, 5, 3, 512)
			if err != nil {
				t.Fatal(err)
			}
			d.walk(walk)
			d.nodes(trace.Path)
			d.ints(len(trace.FirstVisitTime))
			for _, v := range trace.FirstVisitTime {
				d.ints(int(v))
			}
			d.nodes(trace.FirstVisitFrom)
			d.bools(trace.Covered)
			rst, err := svc.RandomSpanningTree(ctx, 6, 0)
			if err != nil {
				t.Fatal(err)
			}
			d.ints(int(rst.Root), rst.WalkLength, rst.Phases, rst.Attempts)
			d.nodes(rst.Parent)
			mix, err := svc.EstimateMixingTime(ctx, 7, 0)
			if err != nil {
				t.Fatal(err)
			}
			d.ints(int(mix.Source), mix.Tau, mix.LastFail, mix.Samples, mix.Tests)
			d.floats(mix.GapLo, mix.GapHi, mix.CondLo, mix.CondHi)
			if err := svc.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := fmt.Sprintf("%016x", d.Sum64()); got != resultsDigestWant {
		t.Errorf("results digest %s, want %s: a result field changed", got, resultsDigestWant)
	}
}

// resultHasher feeds result fields into a 64-bit FNV-1a hash, each as
// one little-endian word.
type resultHasher struct{ hash.Hash64 }

func (h resultHasher) ints(vs ...int) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
}

func (h resultHasher) bools(vs ...bool) {
	for _, v := range vs {
		if v {
			h.ints(1)
		} else {
			h.ints(0)
		}
	}
}

func (h resultHasher) floats(vs ...float64) {
	for _, v := range vs {
		h.ints(int(math.Float64bits(v)))
	}
}

func (h resultHasher) nodes(vs []distwalk.NodeID) {
	h.ints(len(vs))
	for _, v := range vs {
		h.ints(int(v))
	}
}

// walk hashes a WalkResult without Cost and Breakdown.Stitch.
func (h resultHasher) walk(w *distwalk.WalkResult) {
	h.ints(int(w.Source), int(w.Destination), w.Length, w.Lambda, w.Refills, len(w.Segments))
	h.bools(w.Naive)
	for _, s := range w.Segments {
		h.ints(int(s.Start), int(s.End), int(s.WalkID), s.Length, int(s.Batch))
		h.bools(s.FromRefill)
	}
	b := w.Breakdown
	h.ints(b.TreeBuild, b.Phase1, b.Refill, b.Tail, b.Report)
}

func (h resultHasher) many(m *distwalk.ManyResult) {
	h.nodes(m.Destinations)
	h.ints(m.Lambda, m.Refills, len(m.Walks))
	h.bools(m.NaiveFallback)
	for _, w := range m.Walks {
		h.walk(w)
	}
}
