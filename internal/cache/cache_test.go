package cache

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func key(parts ...uint64) Key {
	d := NewDigest()
	for _, p := range parts {
		d.U64(p)
	}
	return d.Key()
}

func mustNew(t *testing.T, cfg Config) *Cache {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func storeVal(c *Cache, t *testing.T, k Key, v any, bytes, rounds int64) {
	t.Helper()
	_, _, err := c.Do(context.Background(), k, func() (Execution, error) {
		return Execution{Value: v, Bytes: bytes, Rounds: rounds}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDigestCanonical(t *testing.T) {
	d1, d2 := NewDigest(), NewDigest()
	d1.U64(7)
	d1.F64(1.5)
	d1.Bool(true)
	d1.I64(-3)
	d2.U64(7)
	d2.F64(1.5)
	d2.Bool(true)
	d2.I64(-3)
	if d1.Key() != d2.Key() {
		t.Fatal("identical field sequences digest differently")
	}
	d3 := NewDigest()
	d3.U64(7)
	d3.F64(1.5)
	d3.Bool(false)
	d3.I64(-3)
	if d1.Key() == d3.Key() {
		t.Fatal("flipped bool did not change the digest")
	}
	// Full-word bools keep the stream self-aligning: (1, nothing) vs
	// (nothing, 1) style collisions cannot happen across field widths.
	d4, d5 := NewDigest(), NewDigest()
	d4.Bool(true)
	d4.U64(0)
	d5.U64(1)
	d5.U64(0)
	if d4.Key() != d5.Key() {
		// Not a requirement, just documenting that Bool == U64(0/1).
		t.Fatal("Bool(true) must encode exactly like U64(1)")
	}
}

// digestOp encodes one fuzz operation: a selector byte (U64, I64, F64,
// Bool by its value mod 4) and the 8-byte little-endian operand.
func digestOp(op byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64([]byte{op}, v)
}

// FuzzDigestMatchesFNV128a pins the cache key bytes: any sequence of
// U64 / I64 / F64 / Bool folds must give the Key that hash/fnv's
// New128a gives over the same words written little-endian. The corpus
// seeds the empty digest, Bool(true) and U64(1) (the same word), and
// -0.0 and +0.0 (different words).
func FuzzDigestMatchesFNV128a(f *testing.F) {
	f.Add([]byte{})
	f.Add(digestOp(3, 1))
	f.Add(digestOp(0, 1))
	f.Add(digestOp(2, math.Float64bits(math.Copysign(0, -1))))
	f.Add(digestOp(2, 0))
	f.Add(append(digestOp(1, math.MaxUint64), digestOp(3, 0)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, ref := NewDigest(), fnv.New128a()
		for ; len(data) >= 9; data = data[9:] {
			v := binary.LittleEndian.Uint64(data[1:9])
			var word uint64
			switch data[0] % 4 {
			case 0:
				d.U64(v)
				word = v
			case 1:
				d.I64(int64(v))
				word = uint64(int64(v))
			case 2:
				x := math.Float64frombits(v)
				d.F64(x)
				word = math.Float64bits(x)
			case 3:
				b := v&1 == 1
				d.Bool(b)
				if b {
					word = 1
				}
			}
			ref.Write(binary.LittleEndian.AppendUint64(nil, word))
		}
		var want Key
		copy(want[:], ref.Sum(nil))
		if got := d.Key(); got != want {
			t.Fatalf("Key %x, hash/fnv New128a %x", got, want)
		}
	})
}

func TestHitMissStats(t *testing.T) {
	c := mustNew(t, Config{MaxBytes: 1 << 20})
	k := key(1)
	storeVal(c, t, k, "v", 100, 10)
	v, _, err := c.Do(context.Background(), k, func() (Execution, error) {
		t.Fatal("exec ran on a hit")
		return Execution{}, nil
	})
	if err != nil || v.(string) != "v" {
		t.Fatalf("hit returned (%v, %v)", v, err)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.CoalescedWaiters != 0 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", st)
	}
	if st.HitBytes != 100 {
		t.Fatalf("HitBytes = %d, want 100", st.HitBytes)
	}
	if st.BytesUsed != 100+entryOverhead {
		t.Fatalf("BytesUsed = %d, want %d", st.BytesUsed, 100+entryOverhead)
	}
}

func TestErrorsNotCached(t *testing.T) {
	c := mustNew(t, Config{MaxBytes: 1 << 20})
	k := key(1)
	boom := errors.New("boom")
	if _, _, err := c.Do(context.Background(), k, func() (Execution, error) {
		return Execution{}, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	storeVal(c, t, k, "ok", 1, 1)
	if st := c.Stats(); st.Misses != 2 {
		t.Fatalf("Misses = %d: the failed execution must not have been cached", st.Misses)
	}
}

func TestNoStoreSharesButSkipsStore(t *testing.T) {
	c := mustNew(t, Config{MaxBytes: 1 << 20})
	k := key(1)
	_, _, err := c.Do(context.Background(), k, func() (Execution, error) {
		return Execution{Value: "partial", Bytes: 1, NoStore: true}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 0 {
		t.Fatal("NoStore execution was stored")
	}
	if st := c.Stats(); st.BytesUsed != 0 {
		t.Fatalf("BytesUsed = %d after NoStore", st.BytesUsed)
	}
}

func TestLRUEvictionByteAccounted(t *testing.T) {
	// One shard so the LRU order is global and the arithmetic exact.
	c := mustNew(t, Config{MaxBytes: 4 * (256 + entryOverhead), Shards: 1, MaxEntryBytes: 1 << 20})
	for i := uint64(0); i < 4; i++ {
		storeVal(c, t, key(i), i, 256, 1)
	}
	if c.Len() != 4 {
		t.Fatalf("Len = %d, want 4", c.Len())
	}
	// Touch key 0 so key 1 is the LRU victim.
	if _, _, o := c.Begin(key(0)); o != Hit {
		t.Fatalf("outcome = %v, want hit", o)
	}
	storeVal(c, t, key(9), 9, 256, 1)
	_, f, o := c.Begin(key(1))
	if o != Miss {
		t.Fatal("LRU victim should have been key 1")
	}
	// Begin(Miss) made us the leader of key 1; retire the flight.
	c.Finish(key(1), f, Execution{}, errors.New("abandon"))
	if _, _, o := c.Begin(key(0)); o != Hit {
		t.Fatal("recently-touched key 0 was evicted before key 1")
	}
	st := c.Stats()
	if st.Evictions != 1 {
		t.Fatalf("Evictions = %d, want 1", st.Evictions)
	}
	want := int64(4 * (256 + entryOverhead))
	if st.BytesUsed != want {
		t.Fatalf("BytesUsed = %d, want %d", st.BytesUsed, want)
	}
}

func TestPerEntryCap(t *testing.T) {
	c := mustNew(t, Config{MaxBytes: 1 << 20, MaxEntryBytes: 512})
	storeVal(c, t, key(1), "big", 513, 1)
	if c.Len() != 0 {
		t.Fatal("oversized entry was admitted")
	}
	storeVal(c, t, key(2), "fits", 512, 1)
	if c.Len() != 1 {
		t.Fatal("entry at the cap was rejected")
	}
}

func TestPurge(t *testing.T) {
	c := mustNew(t, Config{MaxBytes: 1 << 20})
	for i := uint64(0); i < 10; i++ {
		storeVal(c, t, key(i), i, 64, 1)
	}
	c.Purge()
	if c.Len() != 0 {
		t.Fatal("entries survived Purge")
	}
	st := c.Stats()
	if st.Evictions != 10 || st.BytesUsed != 0 {
		t.Fatalf("stats after purge = %+v", st)
	}
}

func TestSingleflightCoalesce(t *testing.T) {
	c := mustNew(t, Config{MaxBytes: 1 << 20})
	k := key(1)
	const waiters = 7
	release := make(chan struct{})
	c.Gate = func(Key) { <-release }
	var execs atomic.Int64
	results := make(chan any, waiters+1)
	var wg sync.WaitGroup
	for i := 0; i < waiters+1; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, _, err := c.Do(context.Background(), k, func() (Execution, error) {
				execs.Add(1)
				return Execution{Value: "shared", Bytes: 1}, nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			results <- v
		}()
	}
	// Wait until every non-leader goroutine has attached to the flight.
	deadline := time.Now().Add(10 * time.Second)
	for c.Stats().CoalescedWaiters < waiters {
		if time.Now().After(deadline) {
			t.Fatalf("only %d waiters attached", c.Stats().CoalescedWaiters)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if got := execs.Load(); got != 1 {
		t.Fatalf("%d executions for %d concurrent identical requests", got, waiters+1)
	}
	close(results)
	n := 0
	for v := range results {
		n++
		if v.(string) != "shared" {
			t.Fatalf("waiter got %v", v)
		}
	}
	if n != waiters+1 {
		t.Fatalf("%d results delivered, want %d", n, waiters+1)
	}
	st := c.Stats()
	if st.Misses != 1 || st.CoalescedWaiters != waiters || st.Hits != 0 {
		t.Fatalf("stats = %+v, want 1 miss + %d coalesced", st, waiters)
	}
}

func TestLeaderFailureWaiterRetries(t *testing.T) {
	c := mustNew(t, Config{MaxBytes: 1 << 20})
	k := key(1)
	leaderIn := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	c.Gate = func(Key) {
		once.Do(func() { close(leaderIn) })
		<-release
	}
	var execs atomic.Int64
	exec := func() (Execution, error) {
		if execs.Add(1) == 1 {
			return Execution{}, errors.New("leader-private failure")
		}
		return Execution{Value: "recovered", Bytes: 1}, nil
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // doomed leader
		defer wg.Done()
		if _, _, err := c.Do(context.Background(), k, exec); err == nil {
			t.Error("leader attempt should have failed")
		}
	}()
	<-leaderIn
	done := make(chan any, 1)
	wg.Add(1)
	go func() { // waiter; becomes the second leader after the failure
		defer wg.Done()
		v, _, err := c.Do(context.Background(), k, exec)
		if err != nil {
			t.Error(err)
			return
		}
		done <- v
	}()
	for c.Stats().CoalescedWaiters < 1 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	if v := <-done; v.(string) != "recovered" {
		t.Fatalf("waiter got %v after leader failure", v)
	}
	wg.Wait()
	if execs.Load() != 2 {
		t.Fatalf("execs = %d, want 2 (failed leader + retrying waiter)", execs.Load())
	}
}

func TestWaiterContextCancel(t *testing.T) {
	c := mustNew(t, Config{MaxBytes: 1 << 20})
	k := key(1)
	release := make(chan struct{})
	c.Gate = func(Key) { <-release }
	go func() {
		_, _, _ = c.Do(context.Background(), k, func() (Execution, error) {
			return Execution{Value: "late", Bytes: 1}, nil
		})
	}()
	for c.Stats().Misses < 1 {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, _, err := c.Do(ctx, k, func() (Execution, error) {
			t.Error("cancelled waiter must not execute")
			return Execution{}, nil
		})
		errc <- err
	}()
	for c.Stats().CoalescedWaiters < 1 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter err = %v, want context.Canceled", err)
	}
	close(release) // leader completes undisturbed
}

func TestConcurrentStress(t *testing.T) {
	c := mustNew(t, Config{MaxBytes: 64 << 10})
	const (
		goroutines = 16
		opsEach    = 400
		keySpace   = 37
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < opsEach; i++ {
				kid := uint64((g*31 + i) % keySpace)
				want := fmt.Sprintf("value-%d", kid)
				v, _, err := c.Do(context.Background(), key(kid), func() (Execution, error) {
					return Execution{Value: want, Bytes: int64(64 + kid)}, nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				if v.(string) != want {
					t.Errorf("key %d returned %v", kid, v)
					return
				}
				if i%97 == 0 {
					c.Purge()
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits+st.Misses+st.CoalescedWaiters != goroutines*opsEach {
		t.Fatalf("lookup outcomes %d+%d+%d do not sum to %d ops",
			st.Hits, st.Misses, st.CoalescedWaiters, goroutines*opsEach)
	}
	if st.BytesUsed < 0 {
		t.Fatalf("BytesUsed underflowed: %d", st.BytesUsed)
	}
}

func TestNewRejectsBadCapacity(t *testing.T) {
	if _, err := New(Config{MaxBytes: 0}); err == nil {
		t.Fatal("MaxBytes 0 accepted")
	}
	if _, err := New(Config{MaxBytes: -5}); err == nil {
		t.Fatal("negative MaxBytes accepted")
	}
}
