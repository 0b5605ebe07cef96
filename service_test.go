package distwalk_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"distwalk"
)

// The service's core contract: per-request-key determinism under
// concurrency. A request's result depends only on (graph, service seed,
// request key), never on which worker served it, what ran before on that
// worker, or how many requests were in flight.

// fingerprint compresses a request result for equality checks.
type fingerprint struct {
	kind string
	dest distwalk.NodeID
	cost distwalk.Cost
	tau  int
}

// mixedRequests fires one of each request kind per key group and returns
// key -> fingerprint. When concurrent, all requests run simultaneously.
func mixedRequests(t *testing.T, svc *distwalk.Service, concurrent bool) map[uint64]fingerprint {
	t.Helper()
	ctx := context.Background()
	type task struct {
		key uint64
		run func(key uint64) (fingerprint, error)
	}
	var tasks []task
	for i := 0; i < 8; i++ {
		src := distwalk.NodeID((i * 17) % 81)
		ell := 400 + 150*i
		tasks = append(tasks, task{uint64(i), func(key uint64) (fingerprint, error) {
			res, err := svc.SingleRandomWalk(ctx, key, src, ell)
			if err != nil {
				return fingerprint{}, err
			}
			return fingerprint{kind: "single", dest: res.Destination, cost: res.Cost}, nil
		}})
	}
	tasks = append(tasks, task{100, func(key uint64) (fingerprint, error) {
		res, err := svc.ManyRandomWalks(ctx, key, []distwalk.NodeID{0, 11, 22, 33}, 600)
		if err != nil {
			return fingerprint{}, err
		}
		return fingerprint{kind: "many", dest: res.Destinations[3], cost: res.Cost}, nil
	}})
	tasks = append(tasks, task{200, func(key uint64) (fingerprint, error) {
		res, err := svc.RandomSpanningTree(ctx, key, 0)
		if err != nil {
			return fingerprint{}, err
		}
		if err := distwalk.ValidateSpanningTree(svc.Graph(), res.Root, res.Parent); err != nil {
			return fingerprint{}, err
		}
		return fingerprint{kind: "rst", dest: res.Parent[80], cost: res.Cost}, nil
	}})
	tasks = append(tasks, task{300, func(key uint64) (fingerprint, error) {
		est, err := svc.EstimateMixingTime(ctx, key, 0, distwalk.WithMixingOptions(distwalk.MixingOptions{Samples: 24}))
		if err != nil {
			return fingerprint{}, err
		}
		return fingerprint{kind: "mix", cost: est.Cost, tau: est.Tau}, nil
	}})

	out := make(map[uint64]fingerprint, len(tasks))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, tk := range tasks {
		run := func(tk task) {
			fp, err := tk.run(tk.key)
			if err != nil {
				t.Errorf("request %d (%s): %v", tk.key, fp.kind, err)
				return
			}
			mu.Lock()
			out[tk.key] = fp
			mu.Unlock()
		}
		if concurrent {
			wg.Add(1)
			go func(tk task) { defer wg.Done(); run(tk) }(tk)
		} else {
			run(tk)
		}
	}
	wg.Wait()
	return out
}

func TestServiceDeterministicPerKeyUnderConcurrency(t *testing.T) {
	g, err := distwalk.Torus(9, 9) // odd torus: non-bipartite, mixing works
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := distwalk.NewService(g, 42, distwalk.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	defer pooled.Close()
	serial, err := distwalk.NewService(g, 42, distwalk.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer serial.Close()

	first := mixedRequests(t, pooled, true)
	second := mixedRequests(t, pooled, true) // same pool, new interleaving
	reference := mixedRequests(t, serial, false)
	if t.Failed() {
		t.FailNow()
	}
	for key, want := range reference {
		if got := first[key]; got != want {
			t.Errorf("key %d: concurrent run 1 %+v != serial %+v", key, got, want)
		}
		if got := second[key]; got != want {
			t.Errorf("key %d: concurrent run 2 %+v != serial %+v", key, got, want)
		}
	}
}

func TestServiceContextCancellation(t *testing.T) {
	g, err := distwalk.Cycle(16)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := distwalk.NewService(g, 7, distwalk.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	// Already-canceled context: rejected before any work.
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := svc.SingleRandomWalk(canceled, 1, 0, 100); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled: err = %v, want context.Canceled", err)
	}

	// Deadline mid-run: a 40M-step naive walk costs ~40M simulated rounds;
	// the engine's round-loop check must abort it almost immediately.
	ctx, cancelT := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancelT()
	start := time.Now()
	_, err = svc.NaiveWalk(ctx, 2, 0, 40_000_000)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("mid-run deadline: err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v — round loop is not checking the context", elapsed)
	}
}

func TestServiceRoundBudget(t *testing.T) {
	g, err := distwalk.Cycle(16)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := distwalk.NewService(g, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	_, err = svc.NaiveWalk(context.Background(), 1, 0, 100_000, distwalk.WithMaxRounds(500))
	if !errors.Is(err, distwalk.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	// The per-request budget must not stick to the pooled worker.
	if _, err := svc.NaiveWalk(context.Background(), 2, 0, 2000); err != nil {
		t.Fatalf("default-budget request after a capped one: %v", err)
	}
}

func TestServiceTypedErrors(t *testing.T) {
	g, err := distwalk.Torus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := distwalk.NewService(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := svc.SingleRandomWalk(ctx, 1, -1, 10); !errors.Is(err, distwalk.ErrBadNode) {
		t.Fatalf("bad node: err = %v, want ErrBadNode", err)
	}
	if _, err := svc.SingleRandomWalk(ctx, 2, 0, -5); !errors.Is(err, distwalk.ErrBadLength) {
		t.Fatalf("bad length: err = %v, want ErrBadLength", err)
	}
	if _, err := svc.RandomSpanningTree(ctx, 3, 99); !errors.Is(err, distwalk.ErrBadNode) {
		t.Fatalf("bad root: err = %v, want ErrBadNode", err)
	}
	// Bipartite graph: the mixing estimator can never pass; cap the search
	// so the failure is quick.
	if _, err := svc.EstimateMixingTime(ctx, 4, 0, distwalk.WithMixingOptions(distwalk.MixingOptions{Samples: 48, MaxEll: 64})); !errors.Is(err, distwalk.ErrNoMixing) {
		t.Fatalf("bipartite mixing: err = %v, want ErrNoMixing", err)
	}
	svc.Close()
	if _, err := svc.SingleRandomWalk(ctx, 5, 0, 10); !errors.Is(err, distwalk.ErrServiceClosed) {
		t.Fatalf("closed service: err = %v, want ErrServiceClosed", err)
	}
	// Generator retry exhaustion through the facade.
	_, err = distwalk.ErdosRenyi(3, 0, 1)
	var retry *distwalk.GenRetryError
	if !errors.Is(err, distwalk.ErrRetryExhausted) || !errors.As(err, &retry) {
		t.Fatalf("ErdosRenyi(p=0): err = %v, want ErrRetryExhausted via *GenRetryError", err)
	}
}

// TestServiceParallelSpeedup pins the acceptance criterion: 8 concurrent
// SingleRandomWalk requests must beat the same 8 requests issued serially
// on the same pool by >1.5x wall clock.
func TestServiceParallelSpeedup(t *testing.T) {
	if raceEnabled {
		t.Skip("wall-clock speedup is not meaningful under the race detector's overhead")
	}
	if runtime.GOMAXPROCS(0) < 4 {
		t.Skipf("need >= 4 CPUs for a meaningful speedup, have %d", runtime.GOMAXPROCS(0))
	}
	g, err := distwalk.Torus(16, 16)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := distwalk.NewService(g, 42, distwalk.WithWorkers(8))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()
	const requests = 8
	const ell = 4096

	run := func(key uint64) {
		if _, err := svc.SingleRandomWalk(ctx, key, 0, ell); err != nil {
			t.Error(err)
		}
	}
	// Warm-up: let every worker fault in its slabs once.
	var wg sync.WaitGroup
	for k := uint64(0); k < requests; k++ {
		wg.Add(1)
		go func(k uint64) { defer wg.Done(); run(k) }(k)
	}
	wg.Wait()

	serialStart := time.Now()
	for k := uint64(0); k < requests; k++ {
		run(100 + k)
	}
	serial := time.Since(serialStart)

	concStart := time.Now()
	for k := uint64(0); k < requests; k++ {
		wg.Add(1)
		go func(k uint64) { defer wg.Done(); run(100 + k) }(k)
	}
	wg.Wait()
	concurrent := time.Since(concStart)

	speedup := float64(serial) / float64(concurrent)
	t.Logf("serial %v, concurrent %v, speedup %.2fx", serial, concurrent, speedup)
	if speedup < 1.5 {
		t.Fatalf("8 concurrent requests only %.2fx faster than serial (want > 1.5x)", speedup)
	}
}

// Example-style smoke: the quickstart from the package docs.
func ExampleService() {
	g, _ := distwalk.Torus(12, 12)
	svc, _ := distwalk.NewService(g, 42, distwalk.WithWorkers(2))
	defer svc.Close()
	res, _ := svc.SingleRandomWalk(context.Background(), 1, 0, 10_000)
	fmt.Println(res.Cost.Rounds < 10_000)
	// Output: true
}

// TestWarmDistinctKeysAllocate is the allocation gate over distinct keys:
// a warm 1-worker service on the seq-walks graph (Torus(48,48), ℓ=1024)
// serving a new key from a new source on every request. Each node's
// coupon list is carved from one slab sized by η·deg(v) and the BFS child
// lists from one slab sized by deg(v), so a warm request allocates its
// results and scheduling, not protocol state. Measured on linux/amd64:
// 45 allocations per SingleRandomWalk and 89 per 4-source ManyRandomWalks;
// the bounds leave a third of headroom.
func TestWarmDistinctKeysAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under -race measure the detector")
	}
	g, err := distwalk.Torus(48, 48)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := distwalk.NewService(g, 1, distwalk.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()
	key := uint64(0)
	next := func() (uint64, distwalk.NodeID) {
		key++
		return key, distwalk.NodeID(key * 577 % uint64(g.N()))
	}
	single := func() {
		k, src := next()
		if _, err := svc.SingleRandomWalk(ctx, k, src, 1024); err != nil {
			t.Fatal(err)
		}
	}
	many := func() {
		k, src := next()
		srcs := []distwalk.NodeID{src, (src + 1) % distwalk.NodeID(g.N()), (src + 48) % distwalk.NodeID(g.N()), (src + 1000) % distwalk.NodeID(g.N())}
		if _, err := svc.ManyRandomWalks(ctx, k, srcs, 1024); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name  string
		req   func()
		bound float64
	}{
		{"SingleRandomWalk", single, 60},
		{"ManyRandomWalks", many, 120},
	} {
		c.req() // the first request carves the slabs
		allocs := testing.AllocsPerRun(3, c.req)
		t.Logf("%s: %.0f allocs per warm request", c.name, allocs)
		if allocs > c.bound {
			t.Errorf("%s: a warm request with a new key allocated %.0f times, want at most %.0f", c.name, allocs, c.bound)
		}
	}
}
