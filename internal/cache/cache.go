// Package cache implements the serving tier's deterministic result
// cache: a sharded, byte-accounted LRU with singleflight request
// coalescing and one fixed admission rule. See doc.go for the design
// notes (key digest layout, generation invalidation, leader rules,
// admission, the frozen-entry/copy-on-return contract).
package cache

import (
	"context"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"sync"
	"sync/atomic"
)

// Key is a canonical request digest: FNV-1a 128 over the fixed-width
// encoding a Digest builds. Two requests share a Key iff every
// result-determining input (graph generation, request kind, request key,
// parameterization, budgets) matches, so a Key collision-free lookup is a
// proof of result identity under the per-key determinism contract.
type Key [16]byte

// Digest accumulates the result-determining fields of a request into a
// Key. Fields must be written in a fixed order with fixed widths — the
// encoding, not the caller's formatting, is what makes keys canonical.
type Digest struct{ h hash.Hash }

// NewDigest returns an empty digest.
func NewDigest() *Digest { return &Digest{h: fnv.New128a()} }

// U64 folds a fixed-width unsigned word.
func (d *Digest) U64(v uint64) {
	var b [8]byte
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	d.h.Write(b[:])
}

// I64 folds a signed word (two's-complement, fixed width).
func (d *Digest) I64(v int64) { d.U64(uint64(v)) }

// F64 folds a float by its IEEE-754 bits (so -0 != +0 and NaNs are
// whatever bits the caller holds — bit identity, not numeric equality).
func (d *Digest) F64(v float64) { d.U64(math.Float64bits(v)) }

// Bool folds a flag as a full word, keeping the stream self-aligning.
func (d *Digest) Bool(v bool) {
	if v {
		d.U64(1)
	} else {
		d.U64(0)
	}
}

// Key returns the digest of everything folded so far.
func (d *Digest) Key() Key {
	var k Key
	copy(k[:], d.h.Sum(nil))
	return k
}

// Stats is the cache's counter snapshot.
type Stats struct {
	// Hits counts lookups served from the store; Misses counts lookups
	// that led an execution.
	Hits   int64 `metric:"lookups_total{outcome=hit},counter"`
	Misses int64 `metric:"lookups_total{outcome=miss},counter"`
	// CoalescedWaiters counts lookups that attached to another request's
	// in-flight execution instead of running their own.
	CoalescedWaiters int64 `metric:"lookups_total{outcome=coalesced},counter"`
	// Evictions counts entries dropped: LRU pressure plus purges
	// (InvalidateCache).
	Evictions int64 `metric:"evictions_total,counter"`
	// BytesUsed is the current charged footprint (payload + per-entry
	// overhead); HitBytes sums the payload bytes served from the store.
	BytesUsed int64 `metric:"bytes,gauge"`
	HitBytes  int64 `metric:"hit_bytes_total,counter"`
}

// Outcome reports how a lookup was resolved.
type Outcome uint8

const (
	// Miss: the caller leads the execution (and, via Begin, MUST Finish
	// the returned flight).
	Miss Outcome = iota
	// Hit: served from the store.
	Hit
	// Coalesced: attached to an in-flight leader.
	Coalesced
)

func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case Coalesced:
		return "coalesced"
	default:
		return "miss"
	}
}

// Flight is one in-progress execution; concurrent lookups of its key
// attach to it instead of executing. The leader publishes exactly once
// via Finish; value/err are safe to read only after done is closed.
type Flight struct {
	done  chan struct{}
	value any
	err   error
}

// Execution is a completed execution offered back to the cache.
type Execution struct {
	// Value is the frozen result master. Callers must treat it as
	// immutable from here on (the copy-on-return contract).
	Value any
	// Bytes is the deep size estimate charged against capacity.
	Bytes int64
	// Rounds is the simulated-round cost. The cache does not read it; it
	// stays because benchmark/replay.go sets it (ROADMAP 2A(i)'s
	// benchmark PR may drop it).
	Rounds int64
	// NoStore shares the value with coalesced waiters but keeps it out of
	// the store — for results that are not per-key deterministic (batched
	// compositions) or otherwise uncacheable.
	NoStore bool
}

// entry is one stored result plus its LRU links.
type entry struct {
	key        Key
	value      any
	bytes      int64 // payload bytes (overhead charged separately)
	prev, next *entry
}

// entryOverhead approximates the per-entry bookkeeping charge (map slot,
// entry struct, LRU links) added on top of the payload bytes.
const entryOverhead = 160

// shard is one lock domain: a map + intrusive LRU list over its slice of
// the byte budget, plus the in-flight executions keyed here.
type shard struct {
	mu      sync.Mutex
	entries map[Key]*entry
	flights map[Key]*Flight
	// head is most-recently-used, tail least; nil when empty.
	head, tail *entry
	bytes, cap int64
}

// Config tunes a Cache.
type Config struct {
	// MaxBytes is the total capacity across shards (required, > 0).
	MaxBytes int64
	// Shards is the lock-domain count (default 8). Keys spread uniformly
	// (they are hashes), each shard owning MaxBytes/Shards.
	Shards int
	// MaxEntryBytes caps a single entry's payload (default MaxBytes/8,
	// always clamped to the per-shard capacity): oversized results are
	// returned but never admitted.
	MaxEntryBytes int64
}

// Cache is a sharded LRU of immutable results with singleflight
// coalescing. Safe for concurrent use.
type Cache struct {
	shards   []shard
	maxEntry int64

	// Gate, when set, is invoked by Do's leader after its flight is
	// registered and before exec runs — a test hook to hold an execution
	// in flight while waiters attach. Set it before any traffic.
	Gate func(Key)

	hits, misses, coalesced atomic.Int64
	evictions               atomic.Int64
	bytesUsed, hitBytes     atomic.Int64
}

// New builds a cache over cfg.MaxBytes bytes.
func New(cfg Config) (*Cache, error) {
	if cfg.MaxBytes <= 0 {
		return nil, fmt.Errorf("cache: capacity must be positive, got %d bytes", cfg.MaxBytes)
	}
	n := cfg.Shards
	if n <= 0 {
		n = 8
	}
	if int64(n) > cfg.MaxBytes {
		n = 1 // degenerate tiny cache: one shard owning the whole budget
	}
	shardCap := cfg.MaxBytes / int64(n)
	maxEntry := cfg.MaxEntryBytes
	if maxEntry <= 0 {
		maxEntry = cfg.MaxBytes / 8
	}
	if maxEntry > shardCap-entryOverhead {
		maxEntry = shardCap - entryOverhead
	}
	c := &Cache{
		shards:   make([]shard, n),
		maxEntry: maxEntry,
	}
	for i := range c.shards {
		c.shards[i] = shard{
			entries: make(map[Key]*entry),
			flights: make(map[Key]*Flight),
			cap:     shardCap,
		}
	}
	return c, nil
}

// shardOf routes a key to its lock domain. Keys are FNV outputs, so any
// fixed byte window is uniform.
func (c *Cache) shardOf(k Key) *shard {
	if len(c.shards) == 1 {
		return &c.shards[0]
	}
	idx := (uint64(k[0]) | uint64(k[1])<<8 | uint64(k[2])<<16 | uint64(k[3])<<24) % uint64(len(c.shards))
	return &c.shards[idx]
}

// Begin resolves k without blocking: a stored value (Hit), an in-flight
// execution to Wait on (Coalesced), or leadership of a fresh flight
// (Miss) — a Miss caller MUST eventually Finish the returned flight, or
// every later lookup of k blocks forever.
func (c *Cache) Begin(k Key) (any, *Flight, Outcome) {
	sh := c.shardOf(k)
	sh.mu.Lock()
	if e, ok := sh.entries[k]; ok {
		sh.moveFrontLocked(e)
		v, b := e.value, e.bytes
		sh.mu.Unlock()
		c.hits.Add(1)
		c.hitBytes.Add(b)
		return v, nil, Hit
	}
	if f, ok := sh.flights[k]; ok {
		sh.mu.Unlock()
		c.coalesced.Add(1)
		return nil, f, Coalesced
	}
	f := &Flight{done: make(chan struct{})}
	sh.flights[k] = f
	sh.mu.Unlock()
	c.misses.Add(1)
	return nil, f, Miss
}

// Attach resolves k without ever leading: a stored value (Hit), an
// in-flight execution to Wait on (Coalesced), or (nil, nil, Miss) — and a
// Miss registers no flight, so the caller executes on its own (still
// counted as a miss) with no Finish obligation. For callers whose miss
// path runs an execution that is not per-key deterministic (the service's
// batched submissions) and therefore must never publish to a shared
// flight.
func (c *Cache) Attach(k Key) (any, *Flight, Outcome) {
	sh := c.shardOf(k)
	sh.mu.Lock()
	if e, ok := sh.entries[k]; ok {
		sh.moveFrontLocked(e)
		v, b := e.value, e.bytes
		sh.mu.Unlock()
		c.hits.Add(1)
		c.hitBytes.Add(b)
		return v, nil, Hit
	}
	if f, ok := sh.flights[k]; ok {
		sh.mu.Unlock()
		c.coalesced.Add(1)
		return nil, f, Coalesced
	}
	sh.mu.Unlock()
	c.misses.Add(1)
	return nil, nil, Miss
}

// Wait blocks on a Coalesced flight until its leader finishes or ctx
// expires. A non-nil error is either the leader's (ctx.Err() == nil) or
// the waiter's own context error.
func (c *Cache) Wait(ctx context.Context, f *Flight) (any, error) {
	select {
	case <-f.done:
		return f.value, f.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Finish completes a flight obtained from a Miss: publishes the result to
// every waiter, stores it when it fits the per-entry cap, and retires the
// flight. The stored master is ex.Value itself — the caller must not
// mutate it after this call (copy-on-return is the caller's job).
func (c *Cache) Finish(k Key, f *Flight, ex Execution, err error) {
	f.value, f.err = ex.Value, err
	sh := c.shardOf(k)
	sh.mu.Lock()
	delete(sh.flights, k)
	if err == nil && !ex.NoStore && ex.Bytes <= c.maxEntry {
		sh.insertLocked(k, ex.Value, ex.Bytes, c)
	}
	sh.mu.Unlock()
	close(f.done)
}

// Do resolves k through the cache: a stored value returns immediately, an
// in-flight execution is waited on, and otherwise exec runs as the
// leader. On leader failure, waiters re-resolve (one of them leads a
// fresh attempt) instead of inheriting an error that may be private to
// the leader — its cancelled context, its exhausted retry budget. exec's
// Execution.Value is frozen on return; see the copy-on-return contract.
func (c *Cache) Do(ctx context.Context, k Key, exec func() (Execution, error)) (any, Outcome, error) {
	for {
		v, f, o := c.Begin(k)
		switch o {
		case Hit:
			return v, Hit, nil
		case Coalesced:
			v, err := c.Wait(ctx, f)
			if err == nil {
				return v, Coalesced, nil
			}
			if cerr := ctx.Err(); cerr != nil {
				return nil, Coalesced, cerr
			}
			continue // leader failed; contend to lead the next attempt
		default:
			if c.Gate != nil {
				c.Gate(k)
			}
			ex, err := exec()
			c.Finish(k, f, ex, err)
			if err != nil {
				return nil, Miss, err
			}
			return ex.Value, Miss, nil
		}
	}
}

// Purge drops every stored entry (counted as evictions). In-flight
// executions are untouched: they complete and publish to their waiters,
// and may re-admit under keys no live digest produces anymore — such
// strays age out through the LRU.
func (c *Cache) Purge() {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n := int64(len(sh.entries))
		freed := sh.bytes
		sh.entries = make(map[Key]*entry)
		sh.head, sh.tail = nil, nil
		sh.bytes = 0
		sh.mu.Unlock()
		c.evictions.Add(n)
		c.bytesUsed.Add(-freed)
	}
}

// Len reports the number of stored entries (test/debug helper).
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}

// Stats returns the counter snapshot.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:             c.hits.Load(),
		Misses:           c.misses.Load(),
		CoalescedWaiters: c.coalesced.Load(),
		Evictions:        c.evictions.Load(),
		BytesUsed:        c.bytesUsed.Load(),
		HitBytes:         c.hitBytes.Load(),
	}
}

// --- shard internals (callers hold sh.mu) ---

// insertLocked stores (k, v) at the LRU front and evicts from the tail
// until the shard fits its capacity again.
func (sh *shard) insertLocked(k Key, v any, bytes int64, c *Cache) {
	if old, ok := sh.entries[k]; ok {
		// A leader finishing after a Purge raced a re-execution of the
		// same key; keep the newer value (they are bit-identical anyway).
		sh.removeLocked(old, c)
	}
	e := &entry{key: k, value: v, bytes: bytes}
	sh.entries[k] = e
	sh.pushFrontLocked(e)
	sh.bytes += bytes + entryOverhead
	c.bytesUsed.Add(bytes + entryOverhead)
	for sh.bytes > sh.cap && sh.tail != nil {
		victim := sh.tail
		sh.removeLocked(victim, c)
		c.evictions.Add(1)
	}
}

func (sh *shard) removeLocked(e *entry, c *Cache) {
	delete(sh.entries, e.key)
	sh.unlinkLocked(e)
	sh.bytes -= e.bytes + entryOverhead
	c.bytesUsed.Add(-(e.bytes + entryOverhead))
}

func (sh *shard) pushFrontLocked(e *entry) {
	e.prev = nil
	e.next = sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

func (sh *shard) unlinkLocked(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sh.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (sh *shard) moveFrontLocked(e *entry) {
	if sh.head == e {
		return
	}
	sh.unlinkLocked(e)
	sh.pushFrontLocked(e)
}
