package core

import (
	"reflect"
	"testing"

	"distwalk/internal/congest"
	"distwalk/internal/graph"
)

// TestWalkerResetMatchesFresh pins the warm-pooling contract at the walker
// level: Reset + Reseed must reproduce a fresh walker's execution bit for
// bit — destinations, segment composition, and the full simulated cost —
// across every algorithm family, even after the walker served a completely
// different workload first.
func TestWalkerResetMatchesFresh(t *testing.T) {
	g, err := graph.Torus(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	const seed = 99
	run := func(w *Walker) []*WalkResult {
		t.Helper()
		var out []*WalkResult
		single, err := w.SingleRandomWalk(3, 512)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, single)
		many, err := w.ManyRandomWalks([]graph.NodeID{0, 5, 9}, 256)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, many.Walks...)
		naive, err := w.NaiveWalk(7, 200)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, naive)
		tr, err := w.Regenerate(single)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(tr.FirstVisitTime, mustRegen(t, w, single).FirstVisitTime) {
			t.Fatal("regeneration is not deterministic within one walker")
		}
		return out
	}

	freshNet := congest.NewNetwork(g, seed)
	fresh, err := NewWalkerOn(freshNet, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	want := run(fresh)

	warmNet := congest.NewNetwork(g, 12345)
	warm, err := NewWalkerOn(warmNet, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	// Dirty the warm walker with an unrelated workload (different seed,
	// different sources and lengths, Metropolis params).
	if _, err := warm.ManyRandomWalks([]graph.NodeID{1, 1, 2, 3}, 300); err != nil {
		t.Fatal(err)
	}
	mh := DefaultParams()
	mh.Metropolis = true
	if err := warm.Reset(mh); err != nil {
		t.Fatal(err)
	}
	warmNet.Reseed(777)
	if _, err := warm.SingleRandomWalk(0, 128); err != nil {
		t.Fatal(err)
	}
	// Now reset onto the reference request.
	if err := warm.Reset(DefaultParams()); err != nil {
		t.Fatal(err)
	}
	warmNet.Reseed(seed)
	got := run(warm)

	if len(got) != len(want) {
		t.Fatalf("warm run produced %d walks, fresh %d", len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("walk %d diverged after Reset:\nwarm  %+v\nfresh %+v", i, got[i], want[i])
		}
	}
}

// TestWalkerSurvivesReshape: a walker built once on a pooled network
// stays valid across Network.Reshape. After Reshape(g2), Reseed and Reset
// it must run exactly like a fresh walker on NewNetwork(g2, seed): Reset
// re-reads the graph, so no step is drawn from the old adjacency.
func TestWalkerSurvivesReshape(t *testing.T) {
	g, err := graph.Torus(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Node 0 trades a neighbor for two, and 9-10 becomes a parallel pair:
	// degrees change, so a stale graph draws different ports.
	g2, err := g.ApplyEdits(
		[]graph.EdgeEdit{{U: 0, V: 1}},
		[]graph.EdgeEdit{{U: 0, V: 27}, {U: 0, V: 36}, {U: 9, V: 10}},
	)
	if err != nil {
		t.Fatal(err)
	}
	const seed = 31
	type answers struct {
		Single *WalkResult
		Many   *ManyResult
		Traces []*Trace
	}
	run := func(w *Walker) (a answers) {
		t.Helper()
		if a.Single, err = w.SingleRandomWalk(0, 512); err != nil {
			t.Fatal(err)
		}
		if a.Many, err = w.ManyRandomWalks([]graph.NodeID{0, 9, 10, 63}, 256); err != nil {
			t.Fatal(err)
		}
		if a.Traces, err = w.RegenerateMany(append([]*WalkResult{a.Single}, a.Many.Walks...)); err != nil {
			t.Fatal(err)
		}
		return a
	}

	fresh, err := NewWalkerOn(congest.NewNetwork(g2, seed), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	want := run(fresh)

	net := congest.NewNetwork(g, seed)
	warm, err := NewWalkerOn(net, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	run(warm) // served on the old graph first
	if changed, err := net.Reshape(g2); err != nil || !changed {
		t.Fatalf("Reshape = %v, %v; want true, nil", changed, err)
	}
	net.Reseed(seed)
	if err := warm.Reset(DefaultParams()); err != nil {
		t.Fatal(err)
	}
	if warm.Graph() != g2 {
		t.Fatal("Reset kept the walker on the graph from before the reshape")
	}
	if got := run(warm); !reflect.DeepEqual(got, want) {
		t.Fatalf("the reshaped walker diverged from a fresh one on the new graph:\n got %+v\nwant %+v", got.Single, want.Single)
	}
}

func mustRegen(t *testing.T, w *Walker, res *WalkResult) *Trace {
	t.Helper()
	tr, err := w.Regenerate(res)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestWalkerResetValidatesParams: Reset is the per-request param switch of
// the service layer, so it must reject unusable parameterizations exactly
// like the constructors do.
func TestWalkerResetValidatesParams(t *testing.T) {
	g, err := graph.Torus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWalker(g, 1, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Reset(Params{}); err == nil {
		t.Fatal("Reset accepted the zero Params")
	}
	// The failed Reset must not have released a broken state: the walker
	// still runs with its previous parameters.
	if _, err := w.SingleRandomWalk(0, 64); err != nil {
		t.Fatalf("walker unusable after rejected Reset: %v", err)
	}
}
