package distwalk_test

// Service-level fault tolerance acceptance tests: a walk that loses its
// token to an injected fault fails FAST with the typed ErrNodeCrashed /
// ErrMessageLost (never by burning its round budget into
// ErrBudgetExceeded), and a service built with WithRetry recovers it on a
// re-seeded attempt — deterministically, because attempt seeds are a pure
// function of (service seed, key, attempt).

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"distwalk"
)

// faultyTorus returns a service over an 8x8 torus whose node 27 is down
// for rounds [30, 400) of every simulated run — late enough that the BFS
// tree build (~diameter rounds) succeeds, long enough that Phase 1 and
// stitching traffic through it dies.
func faultyTorus(t *testing.T, opts ...distwalk.Option) *distwalk.Service {
	t.Helper()
	return churnTorus(t, 400, opts...)
}

// churnTorus is faultyTorus with node 27 down for rounds [30, to).
func churnTorus(t *testing.T, to int, opts ...distwalk.Option) *distwalk.Service {
	t.Helper()
	g, err := distwalk.Torus(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	plan := &distwalk.FaultPlan{
		Churn: []distwalk.FaultChurn{{Node: 27, From: 30, To: to}},
	}
	svc, err := distwalk.NewService(g, 42, append([]distwalk.Option{distwalk.WithFaultPlan(plan)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	return svc
}

func TestCrashedWalkFailsFastThenRecoversWithRetry(t *testing.T) {
	ctx := context.Background()
	const ell = 600
	noRetry := faultyTorus(t)

	// Scan keys for walks the fault kills. Everything is deterministic, so
	// the set of failing keys is fixed; the table below asserts the typed
	// fail-fast contract on every one of them.
	var failing, passing []uint64
	for key := uint64(1); key <= 30; key++ {
		_, err := noRetry.SingleRandomWalk(ctx, key, 0, ell)
		if err == nil {
			passing = append(passing, key)
			continue
		}
		failing = append(failing, key)
		if !errors.Is(err, distwalk.ErrNodeCrashed) {
			t.Fatalf("key %d: error %v does not wrap ErrNodeCrashed", key, err)
		}
		if errors.Is(err, distwalk.ErrBudgetExceeded) {
			t.Fatalf("key %d: fault surfaced as a budget overrun: %v", key, err)
		}
		var nce *distwalk.NodeCrashedError
		if !errors.As(err, &nce) || nce.Node != 27 {
			t.Fatalf("key %d: error %v does not identify the churned node 27", key, err)
		}
	}
	if len(failing) == 0 {
		t.Fatal("fault plan killed no walk in 30 keys; the scenario needs retuning")
	}
	if len(passing) == 0 {
		t.Fatal("fault plan killed every walk; the scenario needs retuning")
	}

	retry := faultyTorus(t, distwalk.WithRetry(6))

	// Attempt 0 is the unsalted request seed: keys that pass without
	// retries must return bit-identical results on the retrying service.
	ref, err := noRetry.SingleRandomWalk(ctx, passing[0], 0, ell)
	if err != nil {
		t.Fatal(err)
	}
	got, err := retry.SingleRandomWalk(ctx, passing[0], 0, ell)
	if err != nil {
		t.Fatal(err)
	}
	if got.Destination != ref.Destination || got.Cost != ref.Cost {
		t.Fatalf("retry-enabled service diverged on a fault-free key:\n got %+v\nwant %+v", got, ref)
	}

	recovered := 0
	for _, key := range failing {
		res, err := retry.SingleRandomWalk(ctx, key, 0, ell)
		if err != nil {
			// Exhausted retries must still surface the typed fault.
			if !errors.Is(err, distwalk.ErrNodeCrashed) {
				t.Errorf("key %d: exhausted error %v does not wrap ErrNodeCrashed", key, err)
			}
			continue
		}
		recovered++
		// Recovery is deterministic: the same key recovers to the same
		// destination, because the salted attempt seeds are fixed.
		again, err := retry.SingleRandomWalk(ctx, key, 0, ell)
		if err != nil || again.Destination != res.Destination {
			t.Errorf("key %d: recovered result not reproducible: %v / %v", key, err, again)
		}
	}
	if recovered == 0 {
		t.Fatal("no killed walk recovered within 6 retries")
	}
	st := retry.Stats()
	if st.Retry.Retries == 0 || st.Retry.Recovered == 0 || st.Retry.Faults == 0 {
		t.Fatalf("retry counters did not move: %+v", st.Retry)
	}
	if noSt := noRetry.Stats(); noSt.Retry.Retries != 0 || noSt.Retry.Recovered != 0 {
		t.Fatalf("retry-free service recorded retries: %+v", noSt.Retry)
	}
}

// TestManyRandomWalksFailsWholeThenRecoversWithRetry pins the batch
// contract: a fault that kills any walk fails the whole ManyRandomWalks
// request with the typed first-loss error, and WithRetry re-runs the
// batch on an attempt-salted seed until every walk completes.
func TestManyRandomWalksFailsWholeThenRecoversWithRetry(t *testing.T) {
	ctx := context.Background()
	const ell = 600
	// A short churn window leaves the salted re-runs room to route round
	// the down node; under [30, 400) no retry budget recovers a batch.
	strict := churnTorus(t, 60)
	retry := churnTorus(t, 60, distwalk.WithRetry(6))

	sources := make([]distwalk.NodeID, 8)
	for i := range sources {
		sources[i] = distwalk.NodeID(i * 9)
	}
	failed, recovered := 0, 0
	for key := uint64(1); key <= 20; key++ {
		_, err := strict.ManyRandomWalks(ctx, key, sources, ell)
		if err == nil {
			continue
		}
		failed++
		if !errors.Is(err, distwalk.ErrNodeCrashed) {
			t.Fatalf("key %d: batch error %v does not wrap ErrNodeCrashed", key, err)
		}
		res, err := retry.ManyRandomWalks(ctx, key, sources, ell)
		if err != nil {
			if !errors.Is(err, distwalk.ErrNodeCrashed) {
				t.Fatalf("key %d: retried batch error %v not typed", key, err)
			}
			continue
		}
		recovered++
		for i, d := range res.Destinations {
			if d == distwalk.None {
				t.Errorf("key %d walk %d: recovered batch has no destination", key, i)
			}
		}
		again, err := retry.ManyRandomWalks(ctx, key, sources, ell)
		if err != nil || !reflect.DeepEqual(again.Destinations, res.Destinations) {
			t.Errorf("key %d: recovered batch not reproducible: %v / %v vs %v", key, err, again, res.Destinations)
		}
	}
	t.Logf("strict failures %d/20, recovered under WithRetry(6): %d", failed, recovered)
	if failed == 0 {
		t.Fatal("no batch failed in 20 keys; the scenario needs retuning")
	}
	if recovered == 0 {
		t.Fatal("no failed batch recovered within 6 retries")
	}
	if st := retry.Stats().Retry; st.Recovered < 1 {
		t.Fatalf("retry counters did not move: %+v", st)
	}
}

// TestFaultPlanRejectedAtConstruction pins NewService's validation: an
// invalid plan fails with ErrBadFault before any worker runs.
func TestFaultPlanRejectedAtConstruction(t *testing.T) {
	g, err := distwalk.Torus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	for name, plan := range map[string]*distwalk.FaultPlan{
		"node out of range": {Crashes: []distwalk.FaultCrash{{Node: 99, Round: 0}}},
		"bad probability":   {DropProb: 1.5},
		"non-edge link":     {LinkDrops: []distwalk.FaultLinkDrop{{From: 0, To: 5, Prob: 0.5}}},
	} {
		if _, err := distwalk.NewService(g, 1, distwalk.WithFaultPlan(plan)); !errors.Is(err, distwalk.ErrBadFault) {
			t.Errorf("%s: NewService = %v, want ErrBadFault", name, err)
		}
	}
}
