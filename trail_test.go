package distwalk_test

import (
	"context"
	"reflect"
	"testing"
	"time"

	"distwalk"
)

// The hop trail is kept only by requests that regenerate (WalkTrace,
// SubmitWalkTrace, RandomSpanningTree); every other kind leaves the
// worker's walker trail-less. These tests pin the two places where a
// trail-less request and a tracing one could be confused for each other.

// checkTrace asserts tr is a complete regeneration of walk.
func checkTrace(t *testing.T, walk *distwalk.WalkResult, tr *distwalk.Trace) {
	t.Helper()
	if tr == nil {
		t.Fatal("no trace")
	}
	total := 0
	for _, p := range tr.Positions {
		total += len(p)
	}
	if total != walk.Length+1 {
		t.Fatalf("trace holds %d positions, want %d", total, walk.Length+1)
	}
	if tr.FirstVisitTime[walk.Source] != 0 {
		t.Fatal("trace does not start at the source")
	}
	last := tr.Positions[walk.Destination]
	if len(last) == 0 || int(last[len(last)-1]) != walk.Length {
		t.Fatal("trace does not end at the walk's destination")
	}
}

// TestTrailWalkTraceAfterSingleCached: on a cached one-worker service,
// WalkTrace with the key and operands of an earlier SingleRandomWalk must
// execute on its own (the kinds have distinct cache digests — a hit would
// hand back a walk whose trail was never kept) and return the same walk
// plus a complete trace, on the worker the trail-less request left warm.
func TestTrailWalkTraceAfterSingleCached(t *testing.T) {
	g, err := distwalk.Torus(9, 9)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := distwalk.NewService(g, 42, distwalk.WithWorkers(1), distwalk.WithResultCache(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()
	single, err := svc.SingleRandomWalk(ctx, 5, 3, 700)
	if err != nil {
		t.Fatal(err)
	}
	walk, tr, err := svc.WalkTrace(ctx, 5, 3, 700)
	if err != nil {
		t.Fatalf("WalkTrace after SingleRandomWalk of the same key: %v", err)
	}
	if cs := svc.Stats().Cache; cs.Misses != 2 || cs.Hits != 0 {
		t.Fatalf("cache served the trace from the single's entry: %d misses, %d hits, want 2 and 0", cs.Misses, cs.Hits)
	}
	if !reflect.DeepEqual(walk, single) {
		t.Fatalf("keeping the trail changed the walk:\ntrace  %+v\nsingle %+v", walk, single)
	}
	checkTrace(t, walk, tr)
	// And the other way round: the single's entry is still served, and a
	// second WalkTrace hits the trace's own entry.
	again, err := svc.SingleRandomWalk(ctx, 5, 3, 700)
	if err != nil {
		t.Fatal(err)
	}
	walk2, tr2, err := svc.WalkTrace(ctx, 5, 3, 700)
	if err != nil {
		t.Fatal(err)
	}
	if cs := svc.Stats().Cache; cs.Misses != 2 || cs.Hits != 2 {
		t.Fatalf("repeat requests: %d misses, %d hits, want 2 and 2", cs.Misses, cs.Hits)
	}
	if !reflect.DeepEqual(again, single) || !reflect.DeepEqual(walk2, walk) || !reflect.DeepEqual(tr2, tr) {
		t.Fatal("cached repeats differ from their executions")
	}
}

// TestTrailMixedBatch: one SubmitWalkTrace member makes its whole batch
// keep the trail. The trace member gets its trace, and every member gets
// the walk an all-SubmitWalk batch of the same composition (hence the same
// seed) produces — recording changes nothing a member can observe.
func TestTrailMixedBatch(t *testing.T) {
	g, err := distwalk.Torus(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	const ell = 300
	run := func(traced int) ([]*distwalk.WalkResult, *distwalk.Trace) {
		svc, err := distwalk.NewService(g, 21, distwalk.WithWorkers(1), distwalk.WithBatching(4, time.Minute))
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		ctx := context.Background()
		handles := make([]*distwalk.WalkHandle, 4)
		for i := range handles {
			submit := svc.SubmitWalk
			if i == traced {
				submit = svc.SubmitWalkTrace
			}
			if handles[i], err = submit(ctx, uint64(i+1), distwalk.NodeID(9*i), ell); err != nil {
				t.Fatal(err)
			}
		}
		walks := make([]*distwalk.WalkResult, len(handles))
		var trace *distwalk.Trace
		seed := handles[0].Batch().Seed
		for i, h := range handles {
			if walks[i], err = h.Result(); err != nil {
				t.Fatal(err)
			}
			if b := h.Batch(); b.Size != len(handles) || b.Seed != seed {
				t.Fatalf("member %d rode batch size %d seed %d, want one full batch", i, b.Size, b.Seed)
			}
			tr, err := h.Trace()
			if i == traced {
				if err != nil {
					t.Fatalf("trace member: %v", err)
				}
				trace = tr
			} else if tr != nil {
				t.Fatalf("member %d did not ask for a trace and got one", i)
			}
		}
		return walks, trace
	}
	plain, _ := run(-1)
	mixed, trace := run(2)
	if !reflect.DeepEqual(mixed, plain) {
		t.Fatalf("a traced member changed the batch's walks:\nmixed %+v\nplain %+v", mixed, plain)
	}
	checkTrace(t, mixed[2], trace)
}
