package distwalk_test

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"distwalk"
	"distwalk/internal/core"
)

// Batching subsystem tests: coalesced SubmitWalk requests must execute as
// shared MANY-RANDOM-WALKS batches whose results are deterministic per
// batch composition, with cancellation, backpressure and shutdown
// behaving as errors.go documents.

// submitBurst fires the given keyed walks concurrently on svc and returns
// the collected results indexed like keys. MaxBatch is expected to equal
// len(keys), so all submissions coalesce into exactly one batch
// regardless of goroutine interleaving.
func submitBurst(t *testing.T, svc *distwalk.Service, keys []uint64, sources []distwalk.NodeID, ell int) []*distwalk.WalkResult {
	t.Helper()
	handles := make([]*distwalk.WalkHandle, len(keys))
	var wg sync.WaitGroup
	var mu sync.Mutex
	for i := range keys {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h, err := svc.SubmitWalk(context.Background(), keys[i], sources[i], ell)
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			handles[i] = h
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	out := make([]*distwalk.WalkResult, len(handles))
	for i, h := range handles {
		res, err := h.Result()
		if err != nil {
			t.Fatalf("walk %d: %v", keys[i], err)
		}
		if info := h.Batch(); info.Size != len(keys) {
			t.Fatalf("walk %d rode a batch of %d, want %d (burst split)", keys[i], info.Size, len(keys))
		}
		out[i] = res
	}
	return out
}

// TestBatchedDeterminismStress is the -race stress pin: the same batch
// composition must produce bit-identical member results across repeated
// rounds, across independent services, and regardless of submission
// interleaving or pool concurrency.
func TestBatchedDeterminismStress(t *testing.T) {
	g, err := distwalk.Torus(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	const ell = 500
	newSvc := func() *distwalk.Service {
		svc, err := distwalk.NewService(g, 4242,
			distwalk.WithWorkers(2), distwalk.WithBatching(8, time.Second))
		if err != nil {
			t.Fatal(err)
		}
		return svc
	}
	svcA := newSvc()
	defer svcA.Close()
	svcB := newSvc()
	defer svcB.Close()

	keys := []uint64{3, 1, 4, 1_000_000, 59, 26, 535, 89} // deliberately unsorted
	sources := make([]distwalk.NodeID, len(keys))
	for i := range sources {
		sources[i] = distwalk.NodeID((i * 23) % g.N())
	}
	reference := submitBurst(t, svcA, keys, sources, ell)
	for round := 0; round < 5; round++ {
		svc := svcA
		if round%2 == 1 {
			svc = svcB
		}
		got := submitBurst(t, svc, keys, sources, ell)
		if !reflect.DeepEqual(got, reference) {
			t.Fatalf("round %d diverged from the first execution of the same composition", round)
		}
	}

	// The batch is also reproducible outside the service: a legacy walker
	// on the batch seed running the sorted composition directly.
	h, err := svcA.SubmitWalk(context.Background(), keys[0], sources[0], ell)
	if err != nil {
		t.Fatal(err)
	}
	// Lone request: flushes by... nothing yet; give it batchmates so the
	// composition matches keys again.
	rest := make([]*distwalk.WalkHandle, 0, len(keys)-1)
	for i := 1; i < len(keys); i++ {
		hi, err := svcA.SubmitWalk(context.Background(), keys[i], sources[i], ell)
		if err != nil {
			t.Fatal(err)
		}
		rest = append(rest, hi)
	}
	res, err := h.Result()
	if err != nil {
		t.Fatal(err)
	}
	for _, hi := range rest {
		if _, err := hi.Result(); err != nil {
			t.Fatal(err)
		}
	}
	w, err := core.NewWalker(g, h.Batch().Seed, distwalk.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	// Sorted by key: 1, 3, 4, 26, 59, 89, 535, 1000000.
	sorted := []distwalk.NodeID{sources[1], sources[0], sources[2], sources[5], sources[4], sources[7], sources[6], sources[3]}
	ref, err := w.ManyRandomWalks(sorted, ell)
	if err != nil {
		t.Fatal(err)
	}
	if res.Destination != ref.Walks[1].Destination || res.Cost != ref.Walks[1].Cost {
		t.Fatalf("batched member diverged from batch-seed walker reference:\n got %+v\nwant %+v",
			res, ref.Walks[1])
	}
	if total := h.Batch().Cost; total != ref.Cost {
		t.Fatalf("batch total cost %+v, reference %+v", total, ref.Cost)
	}
}

// TestBatchedCancelIsolation pins the cancellation half of the contract:
// a member cancelled before flush is dropped from the batch, and the
// surviving members execute exactly as if it had never been submitted.
func TestBatchedCancelIsolation(t *testing.T) {
	g, err := distwalk.Torus(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	const ell = 400
	mk := func() *distwalk.Service {
		svc, err := distwalk.NewService(g, 99,
			distwalk.WithWorkers(1), distwalk.WithBatching(8, 120*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		return svc
	}
	ctx := context.Background()

	// Service 1: submit walks 10, 20 and 30, then cancel 30 before the
	// 120ms flush window closes.
	svc1 := mk()
	defer svc1.Close()
	h10, err := svc1.SubmitWalk(ctx, 10, 0, ell)
	if err != nil {
		t.Fatal(err)
	}
	h20, err := svc1.SubmitWalk(ctx, 20, 5, ell)
	if err != nil {
		t.Fatal(err)
	}
	cctx, cancel := context.WithCancel(ctx)
	h30, err := svc1.SubmitWalk(cctx, 30, 9, ell)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := h30.Result(); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled member: err = %v, want context.Canceled", err)
	}
	r10, err := h10.Result()
	if err != nil {
		t.Fatal(err)
	}
	r20, err := h20.Result()
	if err != nil {
		t.Fatal(err)
	}
	if h10.Batch().Size != 2 {
		t.Fatalf("surviving batch size %d, want 2", h10.Batch().Size)
	}

	// Service 2: the composition that never contained walk 30.
	svc2 := mk()
	defer svc2.Close()
	g10, err := svc2.SubmitWalk(ctx, 10, 0, ell)
	if err != nil {
		t.Fatal(err)
	}
	g20, err := svc2.SubmitWalk(ctx, 20, 5, ell)
	if err != nil {
		t.Fatal(err)
	}
	w10, err := g10.Result()
	if err != nil {
		t.Fatal(err)
	}
	w20, err := g20.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r10, w10) || !reflect.DeepEqual(r20, w20) {
		t.Fatal("cancelling member 30 perturbed its batchmates' outputs")
	}
	if svc1.Stats().Cancelled != 1 {
		t.Fatalf("stats.Cancelled = %d, want 1", svc1.Stats().Cancelled)
	}
}

// TestSubmitWalkUnbatchedIsPerKeyPath pins the default mode: without
// WithBatching, SubmitWalk is the per-key deterministic path run async —
// bit-identical to SingleRandomWalk.
func TestSubmitWalkUnbatchedIsPerKeyPath(t *testing.T) {
	g, err := distwalk.Torus(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := distwalk.NewService(g, 7, distwalk.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()

	h, err := svc.SubmitWalk(ctx, 12, 3, 600)
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.Result()
	if err != nil {
		t.Fatal(err)
	}
	want, err := svc.SingleRandomWalk(ctx, 12, 3, 600)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("unbatched SubmitWalk diverged from SingleRandomWalk on the same key")
	}
	if info := h.Batch(); info.Size != 1 || info.Reason != distwalk.FlushUnbatched {
		t.Fatalf("unbatched batch info = %+v, want size 1, reason unbatched", info)
	}

}

// TestBatchedGoldenCounters pins the batched cost model bit for bit, the
// way golden_test.go pins the per-key algorithms: the canonical batch —
// 8 walks of ℓ=4096 from node 0, keys 8..15, service seed 42 (the
// BatchedWalks workload golden_test.go's Service table points here for) —
// must reproduce these exact simulated counters, and its amortized per-walk
// rounds must land strictly below a SingleRandomWalk of the same length
// on the same service (the acceptance bar for batching at k ≥ 8).
func TestBatchedGoldenCounters(t *testing.T) {
	g, err := distwalk.Torus(16, 16)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := distwalk.NewService(g, 42,
		distwalk.WithWorkers(1), distwalk.WithBatching(8, time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()
	handles := make([]*distwalk.WalkHandle, 8)
	for i := range handles {
		h, err := svc.SubmitWalk(ctx, 8+uint64(i), 0, 4096)
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = h
	}
	for _, h := range handles {
		if _, err := h.Result(); err != nil {
			t.Fatal(err)
		}
	}
	info := handles[0].Batch()
	wantCost := distwalk.Cost{Rounds: 4379, Messages: 1154501, Words: 3457889, MaxQueue: 15}
	if info.Cost != wantCost {
		t.Errorf("golden batch cost changed:\n got %+v\nwant %+v", info.Cost, wantCost)
	}
	wantAm := distwalk.Cost{Rounds: 547, Messages: 144312, Words: 432236, MaxQueue: 15}
	if info.Amortized != wantAm {
		t.Errorf("golden amortized cost changed:\n got %+v\nwant %+v", info.Amortized, wantAm)
	}
	member, err := handles[3].Result()
	if err != nil {
		t.Fatal(err)
	}
	if member.Destination != 76 {
		t.Errorf("golden member destination changed: got %d, want 76", member.Destination)
	}
	single, err := svc.SingleRandomWalk(ctx, 1, 0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if info.Amortized.Rounds >= single.Cost.Rounds {
		t.Errorf("amortized batched rounds %d not strictly below single-walk rounds %d",
			info.Amortized.Rounds, single.Cost.Rounds)
	}
}

// TestBatchingBackpressureAndShutdown exercises the bounded queue
// (ErrQueueFull), abort-on-close (ErrBatchAborted) and closed-service
// (ErrServiceClosed) paths of the scheduler through the public surface.
func TestBatchingBackpressureAndShutdown(t *testing.T) {
	g, err := distwalk.Torus(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// One worker, batch size 1 (every submit flushes), hence the default
	// queue limit of 4. A long synchronous request occupies the lone
	// worker, so flushed batches park and the admission queue fills.
	svc, err := distwalk.NewService(g, 5, distwalk.WithWorkers(1),
		distwalk.WithBatching(1, time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	longCtx, stopLong := context.WithCancel(ctx)
	longDone := make(chan struct{})
	go func() {
		defer close(longDone)
		// 40M naive steps can only end via cancellation.
		_, _ = svc.NaiveWalk(longCtx, 1, 0, 40_000_000)
	}()
	time.Sleep(50 * time.Millisecond) // let the long walk claim the worker

	var handles []*distwalk.WalkHandle
	for key := uint64(2); ; key++ {
		h, err := svc.SubmitWalk(ctx, key, 0, 200)
		if err != nil {
			if !errors.Is(err, distwalk.ErrQueueFull) {
				t.Fatalf("submit %d: err = %v, want ErrQueueFull once the queue fills", key, err)
			}
			if len(handles) < 4 {
				t.Fatalf("queue rejected after only %d pending, limit is 4", len(handles))
			}
			break
		}
		handles = append(handles, h)
		if key > 64 {
			t.Fatal("queue never filled: backpressure is not engaging")
		}
	}
	if svc.Stats().Rejected == 0 {
		t.Fatal("stats did not count the rejection")
	}
	// WithRetry does not re-admit a rejected submission: it fails at
	// submit time, counted as one rejection and no retry.
	before := svc.Stats()
	if _, err := svc.SubmitWalk(ctx, 100, 0, 200, distwalk.WithRetry(3)); !errors.Is(err, distwalk.ErrQueueFull) {
		t.Fatalf("submit with WithRetry(3) on a full queue: err = %v, want ErrQueueFull", err)
	}
	after := svc.Stats()
	if rej, ret := after.Rejected-before.Rejected, after.Retry.Retries-before.Retry.Retries; rej != 1 || ret != 0 {
		t.Fatalf("one rejected submit counted Rejected +%d and Retries +%d, want +1 and +0", rej, ret)
	}
	stopLong() // free the worker; parked and queued batches drain
	<-longDone
	for i, h := range handles {
		if _, err := h.Result(); err != nil {
			t.Fatalf("queued walk %d after drain: %v", i, err)
		}
	}

	// Abort on close: pending members (batch threshold not reached, flush
	// window far away) fail with ErrBatchAborted.
	svc2, err := distwalk.NewService(g, 6, distwalk.WithWorkers(1),
		distwalk.WithBatching(8, time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	hp, err := svc2.SubmitWalk(ctx, 1, 0, 200)
	if err != nil {
		t.Fatal(err)
	}
	svc2.Close()
	if _, err := hp.Result(); !errors.Is(err, distwalk.ErrBatchAborted) {
		t.Fatalf("pending at close: err = %v, want ErrBatchAborted", err)
	}
	if _, err := svc2.SubmitWalk(ctx, 2, 0, 200); !errors.Is(err, distwalk.ErrServiceClosed) {
		t.Fatalf("submit after close: err = %v, want ErrServiceClosed", err)
	}
}

// TestBatchingStats sanity-checks the scheduler counters the service
// surfaces: occupancy histogram, flush reasons and amortized cost.
func TestBatchingStats(t *testing.T) {
	g, err := distwalk.Torus(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := distwalk.NewService(g, 17,
		distwalk.WithWorkers(1), distwalk.WithBatching(4, 40*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()

	// One full batch of 4 (size flush) ...
	four := submitBurst(t, svc, []uint64{1, 2, 3, 4}, []distwalk.NodeID{0, 1, 2, 3}, 300)
	_ = four
	// ... and one lone walk that flushes by delay.
	h, err := svc.SubmitWalk(ctx, 9, 5, 300)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Result(); err != nil {
		t.Fatal(err)
	}
	if got := h.Batch().Reason; got != distwalk.FlushDelay {
		t.Fatalf("lone walk flush reason %v, want delay", got)
	}

	st := svc.Stats()
	if st.Submitted != 5 || st.BatchedWalks != 5 || st.Batches != 2 {
		t.Fatalf("submitted/walks/batches = %d/%d/%d, want 5/5/2", st.Submitted, st.BatchedWalks, st.Batches)
	}
	if st.FlushBySize != 1 || st.FlushByDelay != 1 {
		t.Fatalf("flush reasons size/delay = %d/%d, want 1/1", st.FlushBySize, st.FlushByDelay)
	}
	if st.Occupancy[3] != 1 || st.Occupancy[0] != 1 {
		t.Fatalf("occupancy = %v, want one size-4 and one size-1 batch", st.Occupancy)
	}
	if st.AmortizedRounds() <= 0 || st.AmortizedMessages() <= 0 {
		t.Fatalf("amortized rounds/messages = %v/%v, want positive",
			st.AmortizedRounds(), st.AmortizedMessages())
	}
	// A service without batching reports zeros.
	plain, err := distwalk.NewService(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if s := plain.Stats(); s.Submitted != 0 || s.Batches != 0 {
		t.Fatalf("unbatched service stats = %+v, want zero", s)
	}
}
