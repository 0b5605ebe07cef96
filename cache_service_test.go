package distwalk

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"distwalk/internal/cache"
	"distwalk/internal/core"
	"distwalk/internal/sched"
)

// The tentpole contract: the cached path is provably bit-identical to a
// fresh execution. These tests run in the internal package so they can
// reach the cache's Gate test hook for deterministic singleflight
// interleavings; everything else goes through the public API.

func cacheTestPair(t *testing.T, opts ...Option) (fresh, cached *Service) {
	t.Helper()
	g, err := Torus(9, 9)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err = NewService(g, 42, opts...)
	if err != nil {
		t.Fatal(err)
	}
	cached, err = NewService(g, 42, append([]Option{WithResultCache(1 << 20)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		fresh.Close()
		cached.Close()
	})
	return fresh, cached
}

// TestCacheBitIdentityGoldens pins the acceptance criterion: every kind,
// through every serving mode — uncached, cache miss, cache hit and, for
// the kind with an async twin, async unbatched and async cached —
// deep-equals an execution on an uncached service, cost counters
// included. The handles' flush reasons follow the cache outcome: a
// leader executed (FlushUnbatched), a hit was served (FlushCached) at
// the execution's cost.
func TestCacheBitIdentityGoldens(t *testing.T) {
	ctx := context.Background()
	fresh, cached := cacheTestPair(t)
	sources := []NodeID{0, 11, 22, 33}

	checks := []struct {
		name string
		run  func(s *Service, key uint64) (any, error)
		// submit is the kind's async twin, sharing its digest space (nil:
		// the kind has none).
		submit func(s *Service, key uint64) (*WalkHandle, error)
	}{
		{"single", func(s *Service, key uint64) (any, error) {
			return s.SingleRandomWalk(ctx, key, 3, 500)
		}, func(s *Service, key uint64) (*WalkHandle, error) {
			return s.SubmitWalk(ctx, key, 3, 500)
		}},
		{"naive", func(s *Service, key uint64) (any, error) {
			return s.NaiveWalk(ctx, key, 3, 200)
		}, nil},
		{"many", func(s *Service, key uint64) (any, error) {
			return s.ManyRandomWalks(ctx, key, sources, 400)
		}, nil},
		{"trace", func(s *Service, key uint64) (any, error) {
			w, tr, err := s.WalkTrace(ctx, key, 5, 400)
			if err != nil {
				return nil, err
			}
			return []any{w, tr}, nil
		}, nil},
		{"rst", func(s *Service, key uint64) (any, error) {
			return s.RandomSpanningTree(ctx, key, 0)
		}, nil},
		{"mixing", func(s *Service, key uint64) (any, error) {
			return s.EstimateMixingTime(ctx, key, 0, WithMixingOptions(MixingOptions{Samples: 24}))
		}, nil},
	}
	var misses, hits int64
	for i, c := range checks {
		key := uint64(1000 + i)
		want, err := c.run(fresh, key)
		if err != nil {
			t.Fatalf("%s: fresh: %v", c.name, err)
		}
		miss, err := c.run(cached, key)
		if err != nil {
			t.Fatalf("%s: miss: %v", c.name, err)
		}
		hit, err := c.run(cached, key)
		if err != nil {
			t.Fatalf("%s: hit: %v", c.name, err)
		}
		misses, hits = misses+1, hits+1
		if !reflect.DeepEqual(want, miss) {
			t.Errorf("%s: cache-miss result differs from a fresh execution", c.name)
		}
		if !reflect.DeepEqual(want, hit) {
			t.Errorf("%s: cache-hit result differs from a fresh execution", c.name)
		}
		if c.submit == nil {
			continue
		}
		// Async unbatched on the uncached service, async hit on the sync
		// path's entry, then an async leader on a new key and a hit on it.
		var executed BatchInfo
		for _, mode := range []struct {
			name   string
			svc    *Service
			key    uint64
			reason sched.FlushReason
		}{
			{"async unbatched", fresh, key, FlushUnbatched},
			{"async cached", cached, key, FlushCached},
			{"async leader", cached, key + 100, FlushUnbatched},
			{"async hit on async entry", cached, key + 100, FlushCached},
		} {
			h, err := c.submit(mode.svc, mode.key)
			if err != nil {
				t.Fatalf("%s: %s: %v", c.name, mode.name, err)
			}
			got, err := h.Result()
			if err != nil {
				t.Fatalf("%s: %s: %v", c.name, mode.name, err)
			}
			info := h.Batch()
			ref := want
			if mode.key != key {
				if ref, err = c.run(fresh, mode.key); err != nil {
					t.Fatal(err)
				}
			}
			if !reflect.DeepEqual(ref, got) {
				t.Errorf("%s: %s result differs from a fresh execution", c.name, mode.name)
			}
			if info.Reason != mode.reason || info.Size != 1 {
				t.Errorf("%s: %s batch info = %+v, want a size-1 %v", c.name, mode.name, info, mode.reason)
			}
			if mode.reason == FlushUnbatched {
				executed = info
			} else if info.Cost != executed.Cost || info.Seed != executed.Seed {
				t.Errorf("%s: %s reported %+v, want the execution's cost and seed %+v", c.name, mode.name, info, executed)
			}
		}
		misses, hits = misses+1, hits+2
	}

	// Same key, same operands, different entry point: the digest kinds
	// keep NaiveWalk and SingleRandomWalk apart.
	wantNaive, err := fresh.NaiveWalk(ctx, 1000, 3, 500)
	if err != nil {
		t.Fatal(err)
	}
	gotNaive, err := cached.NaiveWalk(ctx, 1000, 3, 500)
	if err != nil {
		t.Fatal(err)
	}
	misses++
	if !reflect.DeepEqual(wantNaive, gotNaive) {
		t.Error("NaiveWalk was served SingleRandomWalk's entry for the same key and operands")
	}

	st := cached.Stats().Cache
	if st.Misses != misses || st.Hits != hits {
		t.Fatalf("cache stats = %+v, want %d misses and %d hits", st, misses, hits)
	}
	if st.BytesUsed <= 0 || st.HitBytes <= 0 {
		t.Fatalf("byte accounting not live: %+v", st)
	}
	if fs := fresh.Stats().Cache; fs != (CacheStats{}) {
		t.Fatalf("uncached service reported cache stats: %+v", fs)
	}
}

// TestCacheLeaderKeepsAdmissionEpoch publishes a mutation between a
// cached request's flight registration and its leader's execution (the
// Gate hook sits exactly there). The request admitted under the original
// generation — its cache key says so, and so must its execution: the
// result is bit-identical to an uncached service on the original graph,
// and, being pinned to a retired epoch, it is not stored.
func TestCacheLeaderKeepsAdmissionEpoch(t *testing.T) {
	ctx := context.Background()
	fresh, cached := cacheTestPair(t)
	want, err := fresh.SingleRandomWalk(ctx, 5, 3, 500)
	if err != nil {
		t.Fatal(err)
	}
	cached.cache.Gate = func(cache.Key) {
		if _, err := cached.ApplyMutations(ctx, Mutations{AddEdges: []EdgeMutation{{U: 3, V: 40}}}); err != nil {
			t.Error(err)
		}
	}
	got, err := cached.SingleRandomWalk(ctx, 5, 3, 500)
	if err != nil {
		t.Fatal(err)
	}
	if gen := cached.topo.Load().gen; gen != 2 {
		t.Fatalf("generation = %v: the gate did not publish the mutation", gen)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("request admitted at generation 1 executed on another topology:\n  got  %+v\n  want %+v", got, want)
	}
	if n := cached.cache.Len(); n != 0 {
		t.Errorf("%d entries stored for a retired generation", n)
	}
}

// TestCacheCoalescedWaiters is the singleflight acceptance test: k
// concurrent identical requests execute once, and ServiceStats shows
// exactly k−1 coalesced waiters. The cache's Gate hook holds the leader
// in flight until every waiter has attached, making the interleaving
// deterministic under -race.
func TestCacheCoalescedWaiters(t *testing.T) {
	ctx := context.Background()
	fresh, cached := cacheTestPair(t)
	want, err := fresh.SingleRandomWalk(ctx, 77, 10, 500)
	if err != nil {
		t.Fatal(err)
	}
	const k = 8
	release := make(chan struct{})
	cached.cache.Gate = func(cache.Key) { <-release }
	results := make(chan *WalkResult, k)
	errs := make(chan error, k)
	for i := 0; i < k; i++ {
		go func() {
			res, err := cached.SingleRandomWalk(ctx, 77, 10, 500)
			if err != nil {
				errs <- err
				return
			}
			results <- res
		}()
	}
	deadline := time.Now().Add(20 * time.Second)
	for cached.Stats().Cache.CoalescedWaiters < k-1 {
		select {
		case err := <-errs:
			t.Fatal(err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d waiters attached", cached.Stats().Cache.CoalescedWaiters, k-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	for i := 0; i < k; i++ {
		select {
		case err := <-errs:
			t.Fatal(err)
		case res := <-results:
			if !reflect.DeepEqual(want, res) {
				t.Fatal("coalesced result differs from a fresh execution")
			}
		}
	}
	st := cached.Stats().Cache
	if st.Misses != 1 || st.Hits != 0 || st.CoalescedWaiters != k-1 {
		t.Fatalf("stats = %+v, want exactly 1 execution and %d coalesced waiters", st, k-1)
	}
}

func TestCachedSubmitSharesSyncEntries(t *testing.T) {
	ctx := context.Background()
	fresh, cached := cacheTestPair(t)

	want, err := fresh.SingleRandomWalk(ctx, 7, 4, 500)
	if err != nil {
		t.Fatal(err)
	}
	// Populate via the sync path, then hit via an async submit.
	if _, err := cached.SingleRandomWalk(ctx, 7, 4, 500); err != nil {
		t.Fatal(err)
	}
	h, err := cached.SubmitWalk(ctx, 7, 4, 500)
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("submitted walk's cache hit differs from a fresh execution")
	}
	if b := h.Batch(); b.Reason != FlushCached || b.Size != 1 {
		t.Fatalf("batch info = %+v, want a size-1 FlushCached serve", b)
	}
	if b := h.Batch(); !reflect.DeepEqual(b.Cost, want.Cost) {
		t.Fatalf("cached serve reported cost %+v, want the execution's %+v", b.Cost, want.Cost)
	}

	// And the reverse: an async leader's stored result serves sync hits.
	h2, err := cached.SubmitWalk(ctx, 8, 9, 400)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h2.Result(); err != nil {
		t.Fatal(err)
	}
	preHits := cached.Stats().Cache.Hits
	w2, err := cached.SingleRandomWalk(ctx, 8, 9, 400)
	if err != nil {
		t.Fatal(err)
	}
	fw, err := fresh.SingleRandomWalk(ctx, 8, 9, 400)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fw, w2) {
		t.Fatal("sync SingleRandomWalk hit on an async-stored entry differs from fresh")
	}
	if cached.Stats().Cache.Hits != preHits+1 {
		t.Fatal("sync SingleRandomWalk did not hit the async-stored entry")
	}

	// Handles coalesced onto an async leader: the leader's handle reports
	// its own execution (FlushUnbatched), the waiters' a cached serve at
	// that execution's cost. The Gate holds the leader until both waiters
	// have attached.
	release := make(chan struct{})
	cached.cache.Gate = func(cache.Key) { <-release }
	preCoalesced := cached.Stats().Cache.CoalescedWaiters
	handles := make([]*WalkHandle, 3)
	for i := range handles {
		if handles[i], err = cached.SubmitWalk(ctx, 9, 4, 500); err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(20 * time.Second); cached.Stats().Cache.CoalescedWaiters < preCoalesced+2; {
		if time.Now().After(deadline) {
			t.Fatal("waiters did not attach to the async leader")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	want9, err := fresh.SingleRandomWalk(ctx, 9, 4, 500)
	if err != nil {
		t.Fatal(err)
	}
	reasons := map[sched.FlushReason]int{}
	for _, h := range handles {
		got, err := h.Result()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want9, got) {
			t.Fatal("coalesced submitted walk differs from a fresh execution")
		}
		if b := h.Batch(); b.Size != 1 || b.Cost != want9.Cost {
			t.Fatalf("batch info = %+v, want size 1 at the execution's cost %+v", b, want9.Cost)
		}
		reasons[h.Batch().Reason]++
	}
	if reasons[FlushUnbatched] != 1 || reasons[FlushCached] != 2 {
		t.Fatalf("flush reasons = %v, want one leader and two cached serves", reasons)
	}
	cached.cache.Gate = nil

	// A batched service attaches to per-key entries instead of queueing:
	// the sync paths store, the submissions are served from the store
	// without a batch ever forming (the window below never flushes).
	batched, err := NewService(fresh.Graph(), 42, WithResultCache(1<<20), WithBatching(64, time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer batched.Close()
	if _, err := batched.SingleRandomWalk(ctx, 7, 4, 500); err != nil {
		t.Fatal(err)
	}
	hb, err := batched.SubmitWalk(ctx, 7, 4, 500)
	if err != nil {
		t.Fatal(err)
	}
	gotB, errB := hb.Result()
	if errB != nil {
		t.Fatal(errB)
	}
	if !reflect.DeepEqual(want, gotB) {
		t.Fatal("batched service's cache serve differs from a fresh execution")
	}
	if infoB := hb.Batch(); infoB.Reason != FlushCached {
		t.Fatalf("batched service's cache serve reports %v, want FlushCached", infoB.Reason)
	}
	if st := batched.Stats(); st.Submitted != 0 {
		t.Fatalf("cache-served submissions reached the scheduler: %+v", st.SchedStats)
	}
}

// TestCacheMutationIsolation proves frozen entries + copy-on-return:
// callers mutating what they got must not corrupt future hits.
func TestCacheMutationIsolation(t *testing.T) {
	ctx := context.Background()
	fresh, cached := cacheTestPair(t)
	want, err := fresh.ManyRandomWalks(ctx, 1, []NodeID{0, 11, 22}, 400)
	if err != nil {
		t.Fatal(err)
	}
	first, err := cached.ManyRandomWalks(ctx, 1, []NodeID{0, 11, 22}, 400)
	if err != nil {
		t.Fatal(err)
	}
	// Vandalize everything reachable from the miss return.
	for i := range first.Destinations {
		first.Destinations[i] = -7
	}
	for _, w := range first.Walks {
		w.Destination = -7
		for j := range w.Segments {
			w.Segments[j].Start = -7
		}
	}
	first.Cost.Rounds = -7
	second, err := cached.ManyRandomWalks(ctx, 1, []NodeID{0, 11, 22}, 400)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, second) {
		t.Fatal("mutating a returned result corrupted the cached entry")
	}

	// A hit's walks share one segment slab, each walk a capped sub-slice
	// of it: appending to one walk's Segments must reallocate, never
	// overwrite the next walk's first segment.
	for i, w := range second.Walks {
		if len(w.Segments) < 2 {
			t.Fatalf("walk %d has %d segments; the slab check needs ≥ 2 per walk", i, len(w.Segments))
		}
	}
	stray := core.Segment{Start: -7, End: -7, WalkID: -7, Length: -7}
	second.Destinations = append(second.Destinations, -7)
	for _, w := range second.Walks {
		w.Segments = append(w.Segments, stray)
	}
	for i, w := range second.Walks {
		n := len(want.Walks[i].Segments)
		if !reflect.DeepEqual(w.Segments[:n], want.Walks[i].Segments) || w.Segments[n] != stray {
			t.Fatalf("appending to a sibling walk's segments overwrote walk %d's", i)
		}
	}
	third, err := cached.ManyRandomWalks(ctx, 1, []NodeID{0, 11, 22}, 400)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, third) {
		t.Fatal("appending to a returned result corrupted the cached entry")
	}

	wWant, trWant, err := fresh.WalkTrace(ctx, 2, 5, 400)
	if err != nil {
		t.Fatal(err)
	}
	w1, tr1, err := cached.WalkTrace(ctx, 2, 5, 400)
	if err != nil {
		t.Fatal(err)
	}
	w1.Segments = nil
	for i := range tr1.Path {
		tr1.Path[i] = -7
	}
	tr1.FirstVisitTime[0] = -7
	w2, tr2, err := cached.WalkTrace(ctx, 2, 5, 400)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wWant, w2) || !reflect.DeepEqual(trWant, tr2) {
		t.Fatal("mutating a returned trace corrupted the cached entry")
	}
}

// TestCacheConcurrentStress drives concurrent hit/miss/coalesce traffic
// with mutating callers under -race: returned results must never alias
// the store or each other.
func TestCacheConcurrentStress(t *testing.T) {
	ctx := context.Background()
	fresh, cached := cacheTestPair(t)
	const keys = 6
	want := make([]*WalkResult, keys)
	for k := range want {
		w, err := fresh.SingleRandomWalk(ctx, uint64(k), NodeID(k*13%81), 400)
		if err != nil {
			t.Fatal(err)
		}
		want[k] = w
	}
	var wg sync.WaitGroup
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				k := (g + i) % keys
				var got *WalkResult
				var err error
				if (g+i)%3 == 0 {
					var h *WalkHandle
					h, err = cached.SubmitWalk(ctx, uint64(k), NodeID(k*13%81), 400)
					if err == nil {
						got, err = h.Result()
					}
				} else {
					got, err = cached.SingleRandomWalk(ctx, uint64(k), NodeID(k*13%81), 400)
				}
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(want[k], got) {
					t.Errorf("key %d: concurrent cached result differs", k)
					return
				}
				// Mutate after the check — the next reader must not see it.
				got.Destination = -1
				for j := range got.Segments {
					got.Segments[j].End = -1
				}
			}
		}(g)
	}
	wg.Wait()
	st := cached.Stats().Cache
	if st.Hits+st.Misses+st.CoalescedWaiters != 12*10 {
		t.Fatalf("outcomes %d+%d+%d do not sum to 120 lookups",
			st.Hits, st.Misses, st.CoalescedWaiters)
	}
}
