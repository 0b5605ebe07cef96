package sched

import (
	"context"
	"reflect"
	"testing"
	"time"

	"distwalk/internal/core"
	"distwalk/internal/graph"
)

func torus(t *testing.T) *graph.G {
	t.Helper()
	g, err := graph.Torus(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func walker(t *testing.T, g *graph.G, seed uint64) *core.Walker {
	t.Helper()
	w, err := core.NewWalker(g, seed, core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestExecGroupMatchesManyRandomWalks pins that executing a group is a
// plain ManyRandomWalks call: every member's demultiplexed walk and the
// batch cost are bit-identical to the direct call on the same walker
// seed, duplicate sources included.
func TestExecGroupMatchesManyRandomWalks(t *testing.T) {
	g := torus(t)
	sources := []graph.NodeID{0, 9, 17, 9}
	const ell = 500
	want, err := walker(t, g, 42).ManyRandomWalks(sources, ell)
	if err != nil {
		t.Fatal(err)
	}
	b := &Batch{Ell: ell, Params: core.DefaultParams(), Seed: 42}
	for i, src := range sources {
		b.members = append(b.members, &pending{
			req: Request{Key: uint64(i), Source: src, Ell: ell, Params: core.DefaultParams()},
			out: make(chan Result, 1),
		})
	}
	b.Execute(walker(t, g, 42))
	for i, p := range b.members {
		r := <-p.out
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if !reflect.DeepEqual(r.Walk, want.Walks[i]) {
			t.Fatalf("member %d diverged from ManyRandomWalks:\n got %+v\nwant %+v", i, r.Walk, want.Walks[i])
		}
		if r.Batch.Size != len(sources) || r.Batch.Cost != want.Cost {
			t.Fatalf("member %d: batch info %+v, want size %d cost %+v", i, r.Batch, len(sources), want.Cost)
		}
	}
}

// realExec executes batches on a fresh walker seeded with the batch seed
// — the same preparation the service's pooled executor performs.
func realExec(t *testing.T, g *graph.G) func(*Batch) {
	return func(b *Batch) {
		w, err := core.NewWalker(g, b.Seed, b.Params)
		if err != nil {
			b.Abort(err)
			return
		}
		b.Execute(w)
	}
}

// TestBatchExecuteDemux runs a real coalesced batch end to end and checks
// the demultiplexed per-member results, and the batch's cost, against a
// direct MANY-RANDOM-WALKS reference on the batch seed.
func TestBatchExecuteDemux(t *testing.T) {
	g := torus(t)
	const ell = 300
	s := New(42, Config{MaxBatch: 4, MaxDelay: time.Hour}, realExec(t, g))
	defer s.Close()
	ctx := context.Background()
	keys := []uint64{20, 5, 11, 8}
	sources := []graph.NodeID{1, 2, 3, 4}
	chans := make([]<-chan Result, len(keys))
	for i := range keys {
		ch, err := s.Submit(ctx, Request{Key: keys[i], Source: sources[i], Ell: ell, Params: core.DefaultParams()})
		if err != nil {
			t.Fatal(err)
		}
		chans[i] = ch
	}
	results := make([]Result, len(chans))
	for i, ch := range chans {
		results[i] = <-ch
		if results[i].Err != nil {
			t.Fatal(results[i].Err)
		}
	}

	// Reference: members sorted by key are (5,2) (8,4) (11,3) (20,1).
	seed := BatchSeed(42, []uint64{5, 8, 11, 20})
	ref, err := walker(t, g, seed).ManyRandomWalks([]graph.NodeID{2, 4, 3, 1}, ell)
	if err != nil {
		t.Fatal(err)
	}
	refOf := map[uint64]*core.WalkResult{5: ref.Walks[0], 8: ref.Walks[1], 11: ref.Walks[2], 20: ref.Walks[3]}
	for i, r := range results {
		want := refOf[keys[i]]
		if r.Walk.Source != sources[i] {
			t.Fatalf("member %d: demuxed walk starts at %d, want %d", i, r.Walk.Source, sources[i])
		}
		if r.Walk.Destination != want.Destination || !reflect.DeepEqual(r.Walk.Segments, want.Segments) {
			t.Fatalf("member %d (key %d): demuxed walk diverged from the batch-seed reference", i, keys[i])
		}
		if r.Batch.Size != 4 || r.Batch.Seed != seed {
			t.Fatalf("member %d: batch info %+v, want size 4 seed %d", i, r.Batch, seed)
		}
		if r.Batch.Cost != ref.Cost {
			t.Fatalf("member %d: batch cost %+v, want the reference's %+v", i, r.Batch.Cost, ref.Cost)
		}
	}
	// Amortization: the batch cost exceeds any per-walk share, and the
	// amortized share times k stays within the total.
	total := results[0].Batch.Cost
	am := results[0].Batch.Amortized
	if am.Rounds*4 > total.Rounds || am.Rounds <= 0 {
		t.Fatalf("amortized rounds %d inconsistent with total %d over 4 walks", am.Rounds, total.Rounds)
	}
	st := s.Stats()
	if st.BatchedWalks != 4 || st.BatchCost.Rounds != total.Rounds {
		t.Fatalf("stats cost accounting: %+v vs batch total %+v", st, total)
	}
}
