package congest

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"distwalk/internal/graph"
)

// TestBarrierStress crosses one barrier 2×10 000 times per party count in
// the workers' own cadence (a verdict barrier, then a plain one). The
// serial section and the value it publishes are plain variables on
// purpose: under -race any missing happens-before edge — arrivals to the
// last arriver, the release to every waiter — is a reported race, and
// without it a waiter released early reads a stale generation.
func TestBarrierStress(t *testing.T) {
	const gens = 10_000
	for _, parties := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("parties=%d", parties), func(t *testing.T) {
			var b roundBarrier
			b.open(parties)
			defer b.close()
			serialRuns, published := 0, 0
			var wg sync.WaitGroup
			for p := 0; p < parties; p++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for g := 1; g <= gens; g++ {
						b.wait(func() { serialRuns++; published = g })
						if published != g {
							t.Errorf("released from generation %d seeing serial write %d", g, published)
						}
						b.wait(nil) // nobody overwrites published before everyone has read it
					}
				}()
			}
			wg.Wait()
			if serialRuns != gens {
				t.Fatalf("serial section ran %d times over %d generations", serialRuns, gens)
			}
			if b.parked != 0 || b.arrived.Load() != 0 {
				t.Fatalf("barrier left parked=%d arrived=%d", b.parked, b.arrived.Load())
			}
		})
	}
}

// TestBarrierSpinNeedsAPPerParty pins the rule that selects the path: a
// waiter spins only while all open barriers' parties fit GOMAXPROCS. An
// already-released generation makes spin return at its first poll, so
// true means "was allowed to spin".
func TestBarrierSpinNeedsAPPerParty(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	var wide, a, b roundBarrier
	wide.open(4)
	if wide.spin(wide.gen.Load() - 1) {
		t.Fatal("a 4-party barrier spun on 2 Ps")
	}
	wide.close()

	a.open(2)
	defer a.close()
	released := a.gen.Load() - 1
	if !a.spin(released) {
		t.Fatal("2 parties on 2 Ps did not spin")
	}
	b.open(2) // a second sharded Run in flight: 4 parties on 2 Ps
	if a.spin(released) {
		t.Fatal("spun with 4 parties in flight on 2 Ps")
	}
	b.close()
	if !a.spin(released) {
		t.Fatal("did not return to spinning once the other barrier closed")
	}
}

// TestBarrierLateArrival exercises the park fallback and its wake-up. With
// three parties on four Ps the barrier spins; the first arriver is left
// alone until it has given up and parked, the second then arrives and is
// (almost always) still spinning when the third releases both. Whatever
// the interleaving, every party must return and see the serial write.
func TestBarrierLateArrival(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	var b roundBarrier
	b.open(3)
	defer b.close()
	await := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(50 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	published := 0
	for g := 1; g <= 20; g++ {
		var wg sync.WaitGroup
		arrive := func() {
			wg.Add(1)
			go func() {
				defer wg.Done()
				b.wait(func() { published = g })
				if published != g {
					t.Errorf("generation %d: released seeing serial write %d", g, published)
				}
			}()
		}
		arrive()
		await("the first arriver to park", func() bool {
			b.mu.Lock()
			defer b.mu.Unlock()
			return b.parked == 1
		})
		arrive()
		await("the second arriver", func() bool { return b.arrived.Load() == 2 })
		arrive()
		wg.Wait()
	}
	if b.parked != 0 {
		t.Fatalf("barrier left %d waiters parked", b.parked)
	}
}

// TestBarrierNoLivelock runs the engine stress protocol where spinners
// could starve the party they wait for — more shards than Ps (parks at
// once), and exactly as many (spins, and must yield to whatever else
// needs a P) — and checks the run is still the sequential one.
func TestBarrierNoLivelock(t *testing.T) {
	g, err := graph.Torus(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	seqRes, seqP, err := runStress(t, g, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ procs, shards int }{{1, 4}, {2, 2}} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(c.procs))
			res, p, err := runStress(t, g, c.shards)
			if err != nil {
				t.Fatalf("GOMAXPROCS=%d shards=%d: %v", c.procs, c.shards, err)
			}
			if res != seqRes {
				t.Fatalf("GOMAXPROCS=%d shards=%d: Result %+v != sequential %+v", c.procs, c.shards, res, seqRes)
			}
			for v := range seqP.got {
				if p.got[v] != seqP.got[v] || p.sum[v] != seqP.sum[v] {
					t.Fatalf("GOMAXPROCS=%d shards=%d: node %d diverged", c.procs, c.shards, v)
				}
			}
		}()
	}
}

// TestBarrierRunLeavesNoGoroutines: shard workers live for one Run.
func TestBarrierRunLeavesNoGoroutines(t *testing.T) {
	g, err := graph.Torus(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	net := NewNetwork(g, 42, WithShards(4))
	before := runtime.NumGoroutine()
	if _, err := net.Run((&stressProto{seeds: 3, hops: 40}).prepare(g.N())); err != nil {
		t.Fatal(err)
	}
	// wg.Done precedes a worker's exit by a few instructions.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() != before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before a sharded Run, %d after", before, runtime.NumGoroutine())
		}
	}
}
