package core

import (
	"errors"
	"reflect"
	"testing"

	"distwalk/internal/congest"
	"distwalk/internal/graph"
)

// trailWorkload runs every walk entry point once, on a parameterization
// starved enough that GET-MORE-WALKS runs too (so regeneration replays
// refill segments as well as Phase 1 and tail segments).
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
		t.Fatal("starved inventory produced no refill: no refill segment is replayed")
	}
	return out
}

var starved = Params{Lambda: 2, LambdaC: 1, Eta: 1, UniformCounts: true}

// TestEveryWalkRegenerates: every walk of every entry point regenerates,
// its GET-MORE-WALKS segments included, with no opt-in, sequentially and
// sharded (the shards recompute hops concurrently; run under -race) — and both the walks and their traces
// are deep-equal at 1 and 3 shards.
func TestEveryWalkRegenerates(t *testing.T) {
	g := kite(t)
	var walks [][]*WalkResult
	var traces [][]*Trace
	for _, shards := range []int{1, 3} {
		w := newWalker(t, g, 11, starved)
		w.Network().SetShards(shards)
		got := trailWorkload(t, w)
		var trs []*Trace
		for i, res := range got {
			tr, err := w.Regenerate(res)
			if err != nil {
				t.Fatalf("shards=%d: regenerate walk %d: %v", shards, i, err)
			}
			reconstruct(t, g, tr, res)
			trs = append(trs, tr)
		}
		walks, traces = append(walks, got), append(traces, trs)
	}
	if !reflect.DeepEqual(walks[0], walks[1]) {
		t.Fatalf("walks differ at 1 and 3 shards:\n1 %+v\n3 %+v", walks[0], walks[1])
	}
	if !reflect.DeepEqual(traces[0], traces[1]) {
		t.Fatal("traces differ at 1 and 3 shards")
	}
}

// TestRegenerateOtherSeedIsErrNoRegen: the replay recomputes every hop
// from the walker's current seed, so after Reset + Reseed to another seed
// a walk does not replay: it fails with ErrNoRegen and no trace instead of
// returning some other path. Back under the walk's own seed it replays
// the same path again.
func TestRegenerateOtherSeedIsErrNoRegen(t *testing.T) {
	g, err := graph.Torus(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	w := newWalker(t, g, 3, DefaultParams())
	single, err := w.SingleRandomWalk(5, 512)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := w.NaiveWalk(0, 40)
	if err != nil {
		t.Fatal(err)
	}
	if single.Naive || single.Refills != 0 || len(single.Segments) < 3 {
		t.Fatalf("want a stitched walk without refills, got %d segments, %d refills", len(single.Segments), single.Refills)
	}
	reseed := func(seed uint64) {
		if err := w.Reset(DefaultParams()); err != nil {
			t.Fatal(err)
		}
		w.Network().Reseed(seed)
	}
	for _, res := range []*WalkResult{single, naive} {
		want := mustRegen(t, w, res)
		reseed(4)
		if tr, err := w.Regenerate(res); !errors.Is(err, ErrNoRegen) || tr != nil {
			t.Fatalf("Regenerate under another seed: trace %v, err = %v; want no trace and ErrNoRegen", tr != nil, err)
		}
		reseed(3)
		if got := mustRegen(t, w, res); !reflect.DeepEqual(got.Path, want.Path) {
			t.Fatal("back under its own seed the walk replays another path")
		}
	}
}

// TestHopKeyDoesNotAlias: hop j of walk w draws from (seed, w, j) with no
// two pairs sharing a draw. A packed key such as walkID + j<<40 would make
// (owner v, hop j) draw like (owner v+256, hop j−1), so on Torus(48,48)
// node 256's walk s would follow node 0's walk s one hop behind; the χ²
// endpoint suites, on graphs of at most 256 nodes, cannot see that. The
// draws must also change with the seed.
func TestHopKeyDoesNotAlias(t *testing.T) {
	g, err := graph.Torus(48, 48)
	if err != nil {
		t.Fatal(err)
	}
	w := newWalker(t, g, 1, DefaultParams())
	const v = graph.NodeID(100) // every node has degree 4
	port := func(walkID int64, j int32) int { return w.hopPort(v, walkKey(w.net.SeedMix(), walkID), j) }
	const ahead = int64(256) << 32
	if hopKey(walkKey(w.net.SeedMix(), 0), 1) == hopKey(walkKey(w.net.SeedMix(), ahead), 0) {
		t.Error("(owner 0, hop 1) and (owner 256, hop 0) share a key")
	}
	same, pairs := 0, 0
	for s := int64(0); s < 64; s++ {
		for j := int32(1); j <= 32; j++ {
			pairs++
			if port(s, j) == port(ahead|s, j-1) {
				same++
			}
		}
	}
	if share := float64(same) / float64(pairs); share > 0.35 {
		t.Errorf("walk 256<<32|s at hop j−1 draws walk s's port at hop j in %d of %d pairs, want about 1/4", same, pairs)
	}
	var before []int
	for j := int32(0); j < 64; j++ {
		before = append(before, port(7, j))
	}
	w.Network().Reseed(2)
	same = 0
	for j := int32(0); j < 64; j++ {
		if port(7, j) == before[j] {
			same++
		}
	}
	if same > 28 {
		t.Errorf("after a reseed walk 7 draws %d of its 64 ports as before, want about 16", same)
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

// BenchmarkPhase1Trail is Phase 1 plus one ℓ=1024 walk on Torus(48,48) —
// the benchmark's seq-walks request — on a warm walker. Walks store no
// hops, so this one row is what regeneration costs a walk that is never
// regenerated: nothing. rounds/op is the simulated cost.
func BenchmarkPhase1Trail(b *testing.B) {
	g, err := graph.Torus(48, 48)
	if err != nil {
		b.Fatal(err)
	}
	w, err := NewWalker(g, 1, DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	benchWalk(b, w, 0) // grow the slabs
	rounds := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rounds += benchWalk(b, w, uint64(i+1))
	}
	b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
}

// benchWalk serves one request the way a pooled worker does — Reset,
// Reseed, then SingleRandomWalk ℓ=1024 from node 0 — and returns its
// simulated rounds.
func benchWalk(b *testing.B, w *Walker, seed uint64) int {
	if err := w.Reset(DefaultParams()); err != nil {
		b.Fatal(err)
	}
	w.Network().Reseed(seed)
	res, err := w.SingleRandomWalk(0, 1024)
	if err != nil {
		b.Fatal(err)
	}
	return res.Cost.Rounds
}

// BenchmarkRegenerateMany is the row of a spanning-tree phase: on a warm
// walker over Torus(8,8), seven ℓ=256 walks (MANY-RANDOM-WALKS) and then
// one RegenerateMany pass over all of them.
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
