package distwalk_test

import (
	"context"
	"testing"

	"distwalk"
)

// TestCacheHitAllocs gates what a warm result-cache hit allocates: its
// deep copy, nothing else — the request's config stays on the stack, per
// request options included. The request digest allocates nothing, and a
// ManyRandomWalks copy makes the same number of allocations at k = 8 and
// k = 32 (one slab per slice field).
func TestCacheHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	ctx := context.Background()
	g, err := distwalk.Torus(9, 9)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := distwalk.NewService(g, 42, distwalk.WithResultCache(1<<22),
		distwalk.WithMixingOptions(distwalk.MixingOptions{Samples: 24}))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	sources := func(k int) []distwalk.NodeID {
		s := make([]distwalk.NodeID, k)
		for i := range s {
			s[i] = distwalk.NodeID(i * 7 % g.N())
		}
		return s
	}
	src8, src32 := sources(8), sources(32)
	dnp09 := distwalk.WithParams(distwalk.DNP09Params(500, 8)) // built once: building an option allocates
	hits := []struct {
		name string
		max  float64
		run  func() error
	}{
		{"SingleRandomWalk", 2, func() error {
			_, err := svc.SingleRandomWalk(ctx, 1, 3, 500)
			return err
		}},
		{"SingleRandomWalk/WithParams", 2, func() error {
			_, err := svc.SingleRandomWalk(ctx, 8, 3, 500, dnp09)
			return err
		}},
		{"NaiveWalk", 2, func() error {
			_, err := svc.NaiveWalk(ctx, 2, 3, 200)
			return err
		}},
		{"ManyRandomWalks/k=8", 5, func() error {
			_, err := svc.ManyRandomWalks(ctx, 3, src8, 400)
			return err
		}},
		{"ManyRandomWalks/k=32", 5, func() error {
			_, err := svc.ManyRandomWalks(ctx, 4, src32, 400)
			return err
		}},
		{"WalkTrace", 6, func() error {
			_, _, err := svc.WalkTrace(ctx, 5, 5, 400)
			return err
		}},
		{"RandomSpanningTree", 2, func() error {
			_, err := svc.RandomSpanningTree(ctx, 6, 0)
			return err
		}},
		{"EstimateMixingTime", 1, func() error {
			_, err := svc.EstimateMixingTime(ctx, 7, 0)
			return err
		}},
	}
	got := make(map[string]float64, len(hits))
	for _, h := range hits {
		if err := h.run(); err != nil { // the miss that stores the entry
			t.Fatalf("%s: %v", h.name, err)
		}
		var runErr error
		got[h.name] = testing.AllocsPerRun(100, func() {
			if err := h.run(); err != nil {
				runErr = err
			}
		})
		if runErr != nil {
			t.Fatalf("%s: %v", h.name, runErr)
		}
		t.Logf("%s hit: %.0f allocs", h.name, got[h.name])
		if got[h.name] > h.max {
			t.Errorf("%s hit makes %.0f allocations, want ≤ %.0f", h.name, got[h.name], h.max)
		}
	}
	if a, b := got["ManyRandomWalks/k=8"], got["ManyRandomWalks/k=32"]; a != b {
		t.Errorf("ManyRandomWalks hit allocations grow with k: %.0f at k=8, %.0f at k=32", a, b)
	}
	if st := svc.Stats().Cache; st.Misses != int64(len(hits)) {
		t.Errorf("cache saw %d misses, want one per request (%d): the measured calls were not all hits", st.Misses, len(hits))
	}
	digest := distwalk.ManyRequestDigest(3, src8, 400)
	if n := testing.AllocsPerRun(100, func() { digest() }); n != 0 {
		t.Errorf("requestDigest makes %.0f allocations, want 0", n)
	}
}
