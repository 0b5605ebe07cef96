package sched

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"distwalk/internal/core"
	"distwalk/internal/graph"
)

// stubExec is a test executor that records flushed batches and completes
// their members with empty results (or holds them until released).
type stubExec struct {
	mu      sync.Mutex
	batches []*Batch
	gate    chan struct{} // non-nil: exec blocks here before completing
}

func (e *stubExec) exec(b *Batch) {
	e.mu.Lock()
	e.batches = append(e.batches, b)
	gate := e.gate
	e.mu.Unlock()
	if gate != nil {
		<-gate
	}
	info := BatchInfo{Size: b.Size(), Seed: b.Seed, Reason: b.Reason}
	for _, p := range b.members {
		p.out <- Result{Walk: &core.WalkResult{Source: p.req.Source}, Batch: info}
	}
	if b.sched != nil {
		b.sched.noteExecuted(info)
	}
}

func (e *stubExec) snapshot() []*Batch {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]*Batch(nil), e.batches...)
}

func req(key uint64, source graph.NodeID, ell int) Request {
	return Request{Key: key, Source: source, Ell: ell, Params: core.DefaultParams()}
}

func TestBatchSeedCompositionSensitivity(t *testing.T) {
	a := BatchSeed(42, []uint64{1, 2, 3})
	if b := BatchSeed(42, []uint64{1, 2, 3}); b != a {
		t.Fatalf("same composition, different seeds: %d vs %d", a, b)
	}
	distinct := map[uint64]string{a: "{1,2,3}"}
	for name, keys := range map[string][]uint64{
		"{1,2}":     {1, 2},
		"{1,2,4}":   {1, 2, 4},
		"{1,2,3,3}": {1, 2, 3, 3},
		"{0}":       {0},
		"{0,0}":     {0, 0},
		"{}":        {},
	} {
		s := BatchSeed(42, keys)
		if prev, dup := distinct[s]; dup {
			t.Fatalf("composition %s collides with %s on seed %d", name, prev, s)
		}
		distinct[s] = name
	}
	if BatchSeed(7, []uint64{1, 2, 3}) == a {
		t.Fatal("service seed does not influence the batch seed")
	}
}

func TestFlushBySizeSortsAndSeeds(t *testing.T) {
	e := &stubExec{}
	s := New(42, Config{MaxBatch: 3, MaxDelay: time.Hour}, e.exec)
	defer s.Close()
	ctx := context.Background()
	var chans []<-chan Result
	for _, k := range []uint64{9, 4, 7} { // deliberately unsorted
		ch, err := s.Submit(ctx, req(k, graph.NodeID(k), 100))
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	for _, ch := range chans {
		if r := <-ch; r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	batches := e.snapshot()
	if len(batches) != 1 {
		t.Fatalf("got %d batches, want 1", len(batches))
	}
	b := batches[0]
	if b.Size() != 3 || b.Reason != ReasonSize {
		t.Fatalf("batch size %d reason %v, want 3/size", b.Size(), b.Reason)
	}
	var keys []uint64
	for _, p := range b.members {
		keys = append(keys, p.req.Key)
	}
	if keys[0] != 4 || keys[1] != 7 || keys[2] != 9 {
		t.Fatalf("members not sorted by key: %v", keys)
	}
	if want := BatchSeed(42, []uint64{4, 7, 9}); b.Seed != want {
		t.Fatalf("batch seed %d, want BatchSeed over sorted keys %d", b.Seed, want)
	}
}

func TestFlushByDelay(t *testing.T) {
	e := &stubExec{}
	s := New(1, Config{MaxBatch: 8, MaxDelay: 5 * time.Millisecond}, e.exec)
	defer s.Close()
	ch, err := s.Submit(context.Background(), req(1, 0, 100))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-ch:
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if r.Batch.Reason != ReasonDelay {
			t.Fatalf("flush reason %v, want delay", r.Batch.Reason)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("delay window never flushed the lone request")
	}
}

func TestGroupingByCompatibleConfig(t *testing.T) {
	e := &stubExec{}
	s := New(1, Config{MaxBatch: 2, MaxDelay: time.Hour, MaxInFlight: 4}, e.exec)
	defer s.Close()
	ctx := context.Background()
	mh := core.DefaultParams()
	mh.Metropolis = true
	var chans []<-chan Result
	for _, r := range []Request{
		{Key: 1, Source: 0, Ell: 100, Params: core.DefaultParams()},
		{Key: 2, Source: 1, Ell: 200, Params: core.DefaultParams()}, // different ℓ
		{Key: 3, Source: 2, Ell: 100, Params: mh},                   // different params
		{Key: 4, Source: 3, Ell: 100, Params: core.DefaultParams()}, // completes group of key 1
		{Key: 5, Source: 4, Ell: 200, Params: core.DefaultParams()}, // completes group of key 2
		{Key: 6, Source: 5, Ell: 100, Params: mh},                   // completes group of key 3
	} {
		ch, err := s.Submit(ctx, r)
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	for _, ch := range chans {
		if r := <-ch; r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	batches := e.snapshot()
	if len(batches) != 3 {
		t.Fatalf("got %d batches, want 3 (one per compatibility group)", len(batches))
	}
	for _, b := range batches {
		if b.Size() != 2 {
			t.Fatalf("batch of size %d, want 2: incompatible requests coalesced", b.Size())
		}
		if b.members[0].req.Ell != b.Ell || b.members[1].req.Ell != b.Ell {
			t.Fatalf("batch ℓ=%d holds members with other lengths", b.Ell)
		}
	}
}

func TestQueueFullBackpressure(t *testing.T) {
	e := &stubExec{gate: make(chan struct{})}
	s := New(1, Config{MaxBatch: 1, MaxDelay: time.Hour, MaxInFlight: 1}, e.exec)
	ctx := context.Background()
	// First submit flushes immediately (MaxBatch 1) and parks in exec.
	first, err := s.Submit(ctx, req(1, 0, 100))
	if err != nil {
		t.Fatal(err)
	}
	// The in-flight slot is taken, so these four queue up to the limit
	// of 4*MaxBatch...
	var queued []<-chan Result
	for k := uint64(2); k <= 5; k++ {
		ch, err := s.Submit(ctx, req(k, 0, 100))
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, ch)
	}
	// ...and the next is rejected with ErrQueueFull.
	if _, err := s.Submit(ctx, req(6, 0, 100)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	close(e.gate) // release the parked batch; the queue drains
	for _, ch := range append([]<-chan Result{first}, queued...) {
		if r := <-ch; r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	s.Close()
	st := s.Stats()
	if st.Rejected != 1 || st.Submitted != 5 {
		t.Fatalf("stats submitted/rejected = %d/%d, want 5/1", st.Submitted, st.Rejected)
	}
}

func TestCancelledMemberDroppedBeforeFlush(t *testing.T) {
	e := &stubExec{}
	s := New(42, Config{MaxBatch: 8, MaxDelay: 30 * time.Millisecond}, e.exec)
	defer s.Close()
	ctx := context.Background()
	a, err := s.Submit(ctx, req(1, 0, 100))
	if err != nil {
		t.Fatal(err)
	}
	cctx, cancel := context.WithCancel(ctx)
	c, err := s.Submit(cctx, req(2, 1, 100))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Submit(ctx, req(3, 2, 100))
	if err != nil {
		t.Fatal(err)
	}
	cancel() // before the 30ms window flushes
	rc := <-c
	if !errors.Is(rc.Err, context.Canceled) {
		t.Fatalf("cancelled member err = %v, want context.Canceled", rc.Err)
	}
	ra, rb := <-a, <-b
	if ra.Err != nil || rb.Err != nil {
		t.Fatal(ra.Err, rb.Err)
	}
	if ra.Batch.Size != 2 {
		t.Fatalf("batch size %d, want 2 (cancelled member excluded)", ra.Batch.Size)
	}
	// The composition — and therefore the seed — is exactly the batch
	// that never contained the cancelled member.
	if want := BatchSeed(42, []uint64{1, 3}); ra.Batch.Seed != want {
		t.Fatalf("batch seed %d, want %d (seed over surviving keys only)", ra.Batch.Seed, want)
	}
	if st := s.Stats(); st.Cancelled != 1 {
		t.Fatalf("stats.Cancelled = %d, want 1", st.Cancelled)
	}
}

// TestCancelObservedEagerly pins the cancellation watcher: a cancelled
// pending member must unblock immediately, not at the next flush
// trigger — here the only other trigger is an hour away.
func TestCancelObservedEagerly(t *testing.T) {
	e := &stubExec{}
	s := New(1, Config{MaxBatch: 8, MaxDelay: time.Hour}, e.exec)
	defer s.Close()
	cctx, cancel := context.WithCancel(context.Background())
	ch, err := s.Submit(cctx, req(1, 0, 100))
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	select {
	case r := <-ch:
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", r.Err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled pending member not dropped until the flush window — cancellation is not watched")
	}
}

// TestQueueReclaimsCancelledCapacity pins the backpressure fix: a queue
// full of cancelled members must not reject live submissions.
func TestQueueReclaimsCancelledCapacity(t *testing.T) {
	e := &stubExec{gate: make(chan struct{})}
	s := New(1, Config{MaxBatch: 1, MaxDelay: time.Hour, MaxInFlight: 1}, e.exec)
	ctx := context.Background()
	first, err := s.Submit(ctx, req(1, 0, 100)) // flushes, parks in exec
	if err != nil {
		t.Fatal(err)
	}
	cctx, cancel := context.WithCancel(ctx)
	dead := make([]<-chan Result, 4)
	for i := range dead {
		ch, err := s.Submit(cctx, req(uint64(2+i), 0, 100))
		if err != nil {
			t.Fatal(err)
		}
		dead[i] = ch
	}
	// Queue is at its limit with members that are about to die.
	if _, err := s.Submit(ctx, req(9, 0, 100)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("pre-cancel: err = %v, want ErrQueueFull", err)
	}
	cancel()
	for _, ch := range dead {
		if r := <-ch; !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", r.Err)
		}
	}
	live, err := s.Submit(ctx, req(10, 0, 100))
	if err != nil {
		t.Fatalf("live submit after cancellations rejected: %v", err)
	}
	close(e.gate)
	for _, ch := range []<-chan Result{first, live} {
		if r := <-ch; r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	s.Close()
}

func TestCloseAbortsPending(t *testing.T) {
	e := &stubExec{}
	s := New(1, Config{MaxBatch: 8, MaxDelay: time.Hour}, e.exec)
	ch, err := s.Submit(context.Background(), req(1, 0, 100))
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if r := <-ch; !errors.Is(r.Err, ErrBatchAborted) {
		t.Fatalf("pending member at close: err = %v, want ErrBatchAborted", r.Err)
	}
	if _, err := s.Submit(context.Background(), req(2, 0, 100)); !errors.Is(err, ErrSchedulerClosed) {
		t.Fatalf("submit after close: err = %v, want ErrSchedulerClosed", err)
	}
	if st := s.Stats(); st.Aborted != 1 {
		t.Fatalf("stats.Aborted = %d, want 1", st.Aborted)
	}
}

func TestSizeOverflowKeepsDueAndDrains(t *testing.T) {
	e := &stubExec{gate: make(chan struct{})}
	s := New(1, Config{MaxBatch: 2, MaxDelay: time.Hour, MaxInFlight: 1}, e.exec)
	ctx := context.Background()
	// 5 submissions: one batch of 2 flushes and parks; 3 overflow members
	// wait for the slot.
	var chans []<-chan Result
	for k := uint64(1); k <= 5; k++ {
		ch, err := s.Submit(ctx, req(k, 0, 100))
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	close(e.gate)
	for _, ch := range chans {
		if r := <-ch; r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	s.Close()
	// Drained as 2+2+1: the final lone member must not wait for a new
	// delay window — its window already expired with the size overflow.
	st := s.Stats()
	if st.Batches != 3 || st.BatchedWalks != 5 {
		t.Fatalf("batches/walks = %d/%d, want 3/5", st.Batches, st.BatchedWalks)
	}
	if st.Occupancy[1] != 2 || st.Occupancy[0] != 1 {
		t.Fatalf("occupancy = %v, want two size-2 and one size-1 batches", st.Occupancy)
	}
}

func TestStatsSnapshotIsolated(t *testing.T) {
	e := &stubExec{}
	s := New(1, Config{MaxBatch: 1, MaxDelay: time.Hour}, e.exec)
	ch, err := s.Submit(context.Background(), req(1, 0, 10))
	if err != nil {
		t.Fatal(err)
	}
	<-ch
	st := s.Stats()
	st.Occupancy[0] = 999
	if s.Stats().Occupancy[0] == 999 {
		t.Fatal("Stats returned a live reference to the occupancy histogram")
	}
	s.Close()
}
