package distwalk

import (
	"context"
	"reflect"
	"testing"

	"distwalk/internal/congest"
)

// TestWarmWorkerDeterminism is the warm-reuse stress test: one worker
// serving a long mixed sequence of requests must return, for every
// request, exactly what a fresh single-use service returns for the same
// (seed, key, request). This pins the Service's per-key determinism
// contract against the pooled walker's Reset path: nothing a worker served
// before may leak into the next request.
func TestWarmWorkerDeterminism(t *testing.T) {
	g, err := Torus(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	const seed = 4242
	warm, err := NewService(g, seed, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	ctx := context.Background()

	// freshly runs one request on a brand-new single-worker service, so
	// its worker's network and walker have no history at all.
	freshly := func(do func(s *Service) (any, error)) any {
		t.Helper()
		s, err := NewService(g, seed, WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		out, err := do(s)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	check := func(name string, key uint64, do func(s *Service) (any, error)) {
		t.Helper()
		got, err := do(warm)
		if err != nil {
			t.Fatalf("%s (key %d) on warm worker: %v", name, key, err)
		}
		want := freshly(do)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s (key %d): warm worker diverged from fresh service\nwarm:  %+v\nfresh: %+v",
				name, key, got, want)
		}
	}

	// A long sequence of heterogeneous requests on the same worker; every
	// one compared against a zero-history execution. Repeated keys appear
	// deliberately: same key, same result, regardless of position.
	mh := DefaultParams()
	mh.Metropolis = true
	for round := 0; round < 3; round++ {
		for _, key := range []uint64{1, 7, 99, 7} {
			k := key
			check("SingleRandomWalk", k, func(s *Service) (any, error) {
				return s.SingleRandomWalk(ctx, k, 3, 700)
			})
			check("ManyRandomWalks", k, func(s *Service) (any, error) {
				return s.ManyRandomWalks(ctx, k, []NodeID{0, 9, 17, 9}, 300)
			})
			check("WalkTrace", k, func(s *Service) (any, error) {
				walk, trace, err := s.WalkTrace(ctx, k, 5, 400)
				if err != nil {
					return nil, err
				}
				return []any{walk, trace}, nil
			})
			check("MetropolisWalk", k, func(s *Service) (any, error) {
				return s.SingleRandomWalk(ctx, k, 1, 256, WithParams(mh))
			})
			check("RandomSpanningTree", k, func(s *Service) (any, error) {
				return s.RandomSpanningTree(ctx, k, 2)
			})
		}
	}
}

// TestWarmWorkerReusesState pins the allocation half of warm pooling: a
// single-worker service serving repeated requests must not rebuild its
// protocol state per request. Before the slab-backed stores, every request
// allocated a netState with per-node maps on first touch (thousands of
// allocations for this workload); warm reuse leaves only the per-request
// results, channels and scheduling — well under the bound here.
func TestWarmWorkerReusesState(t *testing.T) {
	g, err := Torus(16, 16)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(g, 7, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()
	req := func() {
		if _, err := svc.ManyRandomWalks(ctx, 11, make([]NodeID, 4), 256); err != nil {
			t.Fatal(err)
		}
	}
	req() // warm the worker's slabs (first request pays the growth)
	req() // and once more so high-water marks are settled
	allocs := testing.AllocsPerRun(5, req)
	// The old per-request netState rebuild alone cost >2000 allocations on
	// this workload; the warm path stays two orders of magnitude below.
	// The bound is deliberately loose: it catches "rebuilds state per
	// request", not incidental runtime noise.
	if allocs > 500 {
		t.Fatalf("warm request allocated %.0f times; worker state is not being reused", allocs)
	}
}

// TestReseedAllocatesNothingPerNode pins the other per-request cost of a
// warm worker: prepare reseeds the pooled network for every request, and
// a reseed only installs the seed every draw keys on.
func TestReseedAllocatesNothingPerNode(t *testing.T) {
	g, err := Torus(16, 16)
	if err != nil {
		t.Fatal(err)
	}
	net := congest.NewNetwork(g, 7)
	if allocs := testing.AllocsPerRun(5, func() { net.Reseed(11) }); allocs != 0 {
		t.Fatalf("Reseed allocated %.0f times on %d nodes; want none", allocs, g.N())
	}
}
