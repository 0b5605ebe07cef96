package core

import (
	"errors"
	"reflect"
	"testing"

	"distwalk/internal/congest"
	"distwalk/internal/graph"
)

// trailWorkload runs every walk entry point once, on a parameterization
// starved enough that GET-MORE-WALKS runs too (so both halves of the
// trail, walk paths and flow ledgers, have something to record).
func trailWorkload(t *testing.T, w *Walker) []*WalkResult {
	t.Helper()
	single, err := w.SingleRandomWalk(0, 80)
	if err != nil {
		t.Fatal(err)
	}
	many, err := w.ManyRandomWalks([]graph.NodeID{0, 3, 5}, 60)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := w.NaiveWalk(2, 25)
	if err != nil {
		t.Fatal(err)
	}
	out := append([]*WalkResult{single}, many.Walks...)
	out = append(out, naive)
	refills := 0
	for _, r := range out {
		refills += r.Refills
	}
	if refills == 0 {
		t.Fatal("starved inventory produced no refill: the flow ledger is not exercised")
	}
	return out
}

var starved = Params{Lambda: 2, LambdaC: 1, Eta: 1, UniformCounts: true}

// pathSlots counts the path slots st has reserved and the capacity its
// path shelves hold.
func pathSlots(st *netState) (slots, capacity int) {
	for v := range st.paths {
		p := &st.paths[v]
		slots += len(p.slab)
		capacity += cap(p.slab) + cap(p.runs)
	}
	return slots, capacity
}

// TestTrailOffMatchesOn: keeping the trail changes no random draw, message
// or cost — every WalkResult (destination, segments, Cost, Breakdown) is
// deep-equal with it off and on, sequentially and sharded (the shards read
// the flag concurrently, and write hops into other shards' path runs; run
// under -race) — and a walker that never kept it never reserved a path
// slot or allocated a ledger.
func TestTrailOffMatchesOn(t *testing.T) {
	g := kite(t)
	for _, shards := range []int{1, 3} {
		lean := newWalker(t, g, 11, starved)
		lean.Network().SetShards(shards)
		kept := newWalker(t, g, 11, starved)
		kept.Network().SetShards(shards)
		kept.KeepTrail()

		got, want := trailWorkload(t, lean), trailWorkload(t, kept)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d: walks differ with the trail off:\noff %+v\non  %+v", shards, got, want)
		}
		if slots, capacity := pathSlots(lean.st); slots != 0 || capacity != 0 {
			t.Fatalf("shards=%d: trail-less walker reserved %d path slots (capacity %d)", shards, slots, capacity)
		}
		flows := 0
		for v := range lean.st.gmw {
			if f := &lean.st.gmw[v]; len(f.keys) != 0 || cap(f.keys) != 0 || cap(f.recs) != 0 || len(f.tab.slots) != 0 {
				t.Fatalf("shards=%d: trail-less walker has a flow ledger at node %d", shards, v)
			}
			flows += len(kept.st.gmw[v].keys)
		}
		if slots, _ := pathSlots(kept.st); slots == 0 || flows == 0 {
			t.Fatalf("shards=%d: trail-keeping walker reserved %d path slots, recorded %d flows", shards, slots, flows)
		}
		for i, res := range want {
			if _, err := kept.Regenerate(res); err != nil {
				t.Fatalf("shards=%d: regenerate walk %d with the trail kept: %v", shards, i, err)
			}
		}
	}
}

// TestTrailMissingIsErrNoRegen: a forgotten opt-in fails loudly. Any walk
// of the epoch that ran without the trail makes regeneration refuse with
// ErrNoRegen, also for walks that ran after a late KeepTrail.
func TestTrailMissingIsErrNoRegen(t *testing.T) {
	g := kite(t)
	w := newWalker(t, g, 7, DefaultParams())
	first, err := w.SingleRandomWalk(5, 60)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Regenerate(first); !errors.Is(err, ErrNoRegen) {
		t.Fatalf("Regenerate after a trail-less walk: err = %v, want ErrNoRegen", err)
	}
	w.KeepTrail() // too late for this epoch
	second, err := w.NaiveWalk(0, 25)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Regenerate(second); !errors.Is(err, ErrNoRegen) {
		t.Fatalf("Regenerate after a late KeepTrail: err = %v, want ErrNoRegen", err)
	}
	if _, err := w.RegenerateMany([]*WalkResult{first, second}); !errors.Is(err, ErrNoRegen) {
		t.Fatalf("RegenerateMany after a late KeepTrail: err = %v, want ErrNoRegen", err)
	}
	// Building the tree moves no walk token: KeepTrail after Prepare is in
	// time.
	w = newWalker(t, g, 7, DefaultParams())
	if _, err := w.Prepare(5); err != nil {
		t.Fatal(err)
	}
	w.KeepTrail()
	res, err := w.SingleRandomWalk(5, 60)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Regenerate(res); err != nil {
		t.Fatalf("Regenerate with the trail kept from the first walk on: %v", err)
	}
}

// TestTrailResetRestoresOff: the opt-in lasts one Reset epoch.
func TestTrailResetRestoresOff(t *testing.T) {
	g := kite(t)
	w := newWalker(t, g, 3, DefaultParams())
	w.KeepTrail()
	res, err := w.SingleRandomWalk(5, 60)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Regenerate(res); err != nil {
		t.Fatal(err)
	}
	if err := w.Reset(DefaultParams()); err != nil {
		t.Fatal(err)
	}
	res, err = w.SingleRandomWalk(5, 60)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Regenerate(res); !errors.Is(err, ErrNoRegen) {
		t.Fatalf("Regenerate in the epoch after Reset: err = %v, want ErrNoRegen", err)
	}
	if slots, _ := pathSlots(w.st); slots != 0 {
		t.Fatalf("a trail-less epoch reserved %d path slots", slots)
	}
	// Opting in again after the next Reset works.
	if err := w.Reset(DefaultParams()); err != nil {
		t.Fatal(err)
	}
	w.KeepTrail()
	res, err = w.SingleRandomWalk(5, 60)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Regenerate(res); err != nil {
		t.Fatalf("Regenerate after Reset + KeepTrail: %v", err)
	}
}

// TestQueueMemoryFollowsOccupancy: the engine's queue memory is sized by
// what is in flight, not by what each edge once held. Phase 1 of the
// seq-walks request puts one token on every directed edge (plus the
// source's extra one), and nothing later in a request holds more, so on
// one warm walker serving requests from distinct sources the slab is
// never longer than that, and its capacity after the first request is its
// capacity after the last. An aborted run leaves nothing behind either:
// the next request is bit-identical to a fresh network's, slab included.
func TestQueueMemoryFollowsOccupancy(t *testing.T) {
	requests := 40
	if testing.Short() || raceEnabled {
		requests = 4 // one goroutine throughout: the detector adds minutes, not coverage
	}
	g, err := graph.Torus(48, 48)
	if err != nil {
		t.Fatal(err)
	}
	tokens := 2*g.M() + 1 // η·deg(v) at every node, +1 at the source
	walk := func(w *Walker, seed uint64, src graph.NodeID) (*WalkResult, error) {
		if err := w.Reset(DefaultParams()); err != nil {
			t.Fatal(err)
		}
		w.Network().Reseed(seed)
		return w.SingleRandomWalk(src, 1024)
	}
	w, err := NewWalker(g, 1, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	first := 0
	for i := 1; i <= requests; i++ {
		if _, err := walk(w, uint64(i), graph.NodeID(i*57%g.N())); err != nil {
			t.Fatal(err)
		}
		used, retained := w.Network().QueueSlots()
		if i == 1 {
			first = retained
		}
		if used > tokens || retained != first || retained >= 2*tokens {
			t.Fatalf("request %d: %d slots used, %d retained; want at most %d used (the Phase-1 tokens) and %d retained, as after request 1",
				i, used, retained, tokens, first)
		}
	}

	// Abort mid-Phase-1: past the BFS build (48 rounds), before the
	// shortest short walk (λ ≥ 200 steps) ends, so every token is queued.
	w.Network().SetMaxRounds(100)
	if _, err := walk(w, 7, 5); !errors.Is(err, congest.ErrRoundLimit) {
		t.Fatalf("budgeted walk: err = %v, want the round limit", err)
	}
	if used, _ := w.Network().QueueSlots(); used != tokens {
		t.Fatalf("aborted Phase 1 held %d slots, want all %d tokens", used, tokens)
	}
	w.Network().SetMaxRounds(congest.DefaultMaxRounds)
	got, err := walk(w, 99, 11)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewWalker(g, 99, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.SingleRandomWalk(11, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("walk after an aborted run differs from a fresh network's:\nwarm  %+v\nfresh %+v", got, want)
	}
	gotUsed, _ := w.Network().QueueSlots()
	if wantUsed, _ := fresh.Network().QueueSlots(); gotUsed != wantUsed {
		t.Fatalf("run after an abort ended with %d slots, a fresh network with %d: it did not start from an empty slab", gotUsed, wantUsed)
	}
}

// BenchmarkPhase1Trail is the trail's own before/after row: Phase 1 plus
// one ℓ=1024 walk on Torus(48,48) — the benchmark's seq-walks request —
// on a warm walker, with the trail off and on. rounds/op is the simulated
// cost and must read the same in both.
func BenchmarkPhase1Trail(b *testing.B) {
	g, err := graph.Torus(48, 48)
	if err != nil {
		b.Fatal(err)
	}
	for _, keep := range []bool{false, true} {
		name := "off"
		if keep {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			w, err := NewWalker(g, 1, DefaultParams())
			if err != nil {
				b.Fatal(err)
			}
			benchWalk(b, w, 0, keep) // grow the slabs
			rounds := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rounds += benchWalk(b, w, uint64(i+1), keep)
			}
			b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
		})
	}
}

// benchWalk serves one request the way a pooled worker does — Reset,
// Reseed, then SingleRandomWalk ℓ=1024 from node 0 — and returns its
// simulated rounds.
func benchWalk(b *testing.B, w *Walker, seed uint64, keepTrail bool) int {
	if err := w.Reset(DefaultParams()); err != nil {
		b.Fatal(err)
	}
	w.Network().Reseed(seed)
	if keepTrail {
		w.KeepTrail()
	}
	res, err := w.SingleRandomWalk(0, 1024)
	if err != nil {
		b.Fatal(err)
	}
	return res.Cost.Rounds
}

// BenchmarkRegenerateMany is the trail-on row of a spanning-tree phase:
// on a warm walker over Torus(8,8) that keeps the trail, seven ℓ=256 walks
// (MANY-RANDOM-WALKS) and then one RegenerateMany pass over all of them.
// rounds/op covers both and is the simulated cost.
func BenchmarkRegenerateMany(b *testing.B) {
	g, err := graph.Torus(8, 8)
	if err != nil {
		b.Fatal(err)
	}
	w, err := NewWalker(g, 1, DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	sources := make([]graph.NodeID, 7)
	request := func(seed uint64) int {
		if err := w.Reset(DefaultParams()); err != nil {
			b.Fatal(err)
		}
		w.Network().Reseed(seed)
		w.KeepTrail()
		many, err := w.ManyRandomWalks(sources, 256)
		if err != nil {
			b.Fatal(err)
		}
		traces, err := w.RegenerateMany(many.Walks)
		if err != nil {
			b.Fatal(err)
		}
		return many.Cost.Rounds + traces[0].Cost.Rounds
	}
	request(0) // grow the slabs
	rounds := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rounds += request(uint64(i + 1))
	}
	b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
}
