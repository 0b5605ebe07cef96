package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// window is what one measured (or traced) stretch of load produced.
type window struct {
	from, to  int       // request index range [from, to)
	lat       []float64 // ms, one per successful request
	kinds     []kind    // kinds[i] is the kind of the request timed in lat[i]
	passRates []float64 // closed loop: successful requests per second of each pass
	wall      time.Duration
	failed    int
	counted   int // requests behind rounds and msgs: the window's fixed prefix
	rounds    int64
	msgs      int64
	mallocs   uint64 // heap objects allocated while the first allocReqs requests ran
	allocReqs int
	liveHeap  uint64    // bytes live after a collection once those allocReqs requests had run
	late      []float64 // open loop: how late each request was fired, ms
	peak      int       // open loop: most requests in flight at once
	seen      map[uint64]outcome
	firstErr  error // first failure, for the report
}

func (w *window) attempted() int { return w.to - w.from }

// client is one load-generating goroutine's private tally, merged into the
// window after each pass so the hot loop takes no lock.
type client struct {
	lat     []float64
	kinds   []kind
	failed  int
	countTo int // requests with an index below this count toward rounds and msgs
	counted int
	rounds  int64
	msgs    int64
	seen    map[uint64]outcome
	seenAt  map[uint64]int // mutation count the outcome was seen under
	err     error          // first failure
	fatal   error          // first correctness violation
}

// one executes request i, times it, and checks a repeated key repeats its
// outcome (within one topology generation).
func (c *client) one(ctx context.Context, wl *workload, in *instance, tr *tracer, i int) {
	r := &in.reqs[i%len(in.reqs)]
	id := tr.begin(0, i+1, spanService)
	t0 := time.Now()
	out, err := in.do(ctx, r)
	d := time.Since(t0)
	tr.end(id)
	c.record(wl, in, i, out, err, d)
}

// record tallies request i's answer. Simulated cost is summed over a fixed
// prefix of the window only, so that the count metrics cover the same
// requests — and repeat exactly — however many the clock let through.
func (c *client) record(wl *workload, in *instance, i int, out outcome, err error, d time.Duration) {
	r := &in.reqs[i%len(in.reqs)]
	if err != nil {
		if errors.Is(err, errIncorrect) && c.fatal == nil {
			c.fatal = err
		}
		if c.err == nil {
			c.err = err
		}
		c.failed++
		return
	}
	c.lat = append(c.lat, float64(d)/1e6)
	c.kinds = append(c.kinds, r.kind)
	if i < c.countTo {
		c.counted++
		c.rounds += int64(out.rounds)
		c.msgs += out.msgs
	}
	if !wl.perKey || r.kind == kMutate {
		return
	}
	if prev, ok := c.seen[r.key]; ok && c.seenAt[r.key] == in.gen {
		if prev != out && c.fatal == nil {
			c.fatal = fmt.Errorf("%w: key %d answered %+v, then %+v", errIncorrect, r.key, prev, out)
		}
		return
	}
	c.seen[r.key], c.seenAt[r.key] = out, in.gen
}

func newClients(n, countTo int) []*client {
	cs := make([]*client, n)
	for i := range cs {
		cs[i] = &client{countTo: countTo, seen: map[uint64]outcome{}, seenAt: map[uint64]int{}}
	}
	return cs
}

// merge folds the clients' tallies into w and reports the first
// correctness violation.
func (w *window) merge(cs []*client) error {
	var fatal error
	for _, c := range cs {
		w.lat = append(w.lat, c.lat...)
		w.kinds = append(w.kinds, c.kinds...)
		w.failed += c.failed
		w.counted += c.counted
		w.rounds += c.rounds
		w.msgs += c.msgs
		for k, v := range c.seen {
			w.seen[k] = v
		}
		if w.firstErr == nil {
			w.firstErr = c.err
		}
		if fatal == nil {
			fatal = c.fatal
		}
		c.lat, c.kinds, c.failed, c.counted, c.rounds, c.msgs = c.lat[:0], c.kinds[:0], 0, 0, 0, 0
	}
	return fatal
}

// runPass runs requests [base, base+n) on the clients and waits for them:
// client c takes the requests whose offset is c modulo the client count, so
// a key always meets the same client.
func runPass(ctx context.Context, wl *workload, in *instance, cs []*client, tr *tracer, base, n int) {
	var wg sync.WaitGroup
	for ci, c := range cs {
		wg.Add(1)
		go func(ci int, c *client) {
			defer wg.Done()
			for j := ci; j < n; j += len(cs) {
				c.one(ctx, wl, in, tr, base+j)
			}
		}(ci, c)
	}
	wg.Wait()
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// liveHeap collects and returns the bytes still reachable.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// closedLoop runs passes of chunk requests until d has elapsed (at least
// one pass): each client sends its next request only when the previous one
// has answered. maxReqs > 0 ends the window early (the tracer's capacity).
func closedLoop(ctx context.Context, wl *workload, in *instance, chunk int, d time.Duration, tr *tracer, maxReqs int) (*window, error) {
	w := &window{from: in.cursor, seen: map[uint64]outcome{}}
	cs := newClients(wl.clients, w.from+wl.countReqs)
	m0 := mallocs()
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < d; pass++ {
		if maxReqs > 0 && in.cursor-w.from+chunk > maxReqs && pass > 0 {
			break
		}
		base := in.cursor
		in.cursor += chunk
		failedBefore := w.failed
		t0 := time.Now()
		runPass(ctx, wl, in, cs, tr, base, chunk)
		wall := time.Since(t0)
		if err := w.merge(cs); err != nil {
			return w, err
		}
		w.passRates = append(w.passRates, float64(chunk-(w.failed-failedBefore))/wall.Seconds())
		// Allocation is front-loaded (slabs and scratch grow to their high-water
		// marks), so it is counted over the same fixed prefix as the simulated
		// cost, not over however many requests the clock let through. The live
		// heap is read at the same point: what a Service retains grows with the
		// requests it has served (apps: per-source state of every distinct
		// mixing source), so at the end of a clock-bounded window it would
		// measure the machine's speed.
		if w.allocReqs == 0 && in.cursor-w.from >= wl.countReqs {
			w.mallocs, w.allocReqs = mallocs()-m0, in.cursor-w.from
			w.liveHeap = liveHeap()
		}
		if err := ctx.Err(); err != nil {
			return w, fmt.Errorf("hard deadline: %w", err)
		}
	}
	w.wall = time.Since(start)
	w.to = in.cursor
	if w.allocReqs == 0 { // the window ended inside the prefix
		w.mallocs, w.allocReqs = mallocs()-m0, w.attempted()
		w.liveHeap = liveHeap()
	}
	return w, nil
}

// openLoop fires requests on a fixed schedule whether or not earlier ones
// have answered — independent users — and times each from the moment it
// was due, so a stall is charged to every request it delays. One
// generator goroutine submits; one goroutine per request in flight waits
// for its answer.
func openLoop(ctx context.Context, wl *workload, in *instance, d time.Duration, tr *tracer) (*window, error) {
	n := max(int(wl.rate*d.Seconds()), 1)
	w := &window{from: in.cursor, to: in.cursor + n, seen: map[uint64]outcome{}, late: make([]float64, n)}
	in.cursor += n
	cs := newClients(n, w.from+wl.countReqs) // one tally per request: written by its waiter alone
	var inFlight, lastDone atomic.Int64
	var wg sync.WaitGroup
	m0 := mallocs()
	start := time.Now()
	for i := 0; i < n; i++ {
		due := wl.due(start, i)
		time.Sleep(time.Until(due))
		w.late[i] = float64(time.Since(due)) / 1e6
		r := &in.reqs[(w.from+i)%len(in.reqs)]
		id := tr.begin(0, w.from+i+1, spanService)
		h, err := in.svcs[r.svc].SubmitWalk(ctx, r.key, r.src, r.ell)
		if err != nil { // refused (ErrQueueFull) or invalid: counted, never fatal
			tr.end(id)
			cs[i].record(wl, in, w.from+i, outcome{}, err, 0)
			continue
		}
		w.peak = max(w.peak, int(inFlight.Add(1)))
		wg.Add(1)
		go func(c *client, i int) {
			defer wg.Done()
			out, err := in.await(h, r)
			done := time.Now()
			tr.end(id)
			inFlight.Add(-1)
			c.record(wl, in, i, out, err, done.Sub(due))
			for {
				prev := lastDone.Load()
				if t := int64(done.Sub(start)); t <= prev || lastDone.CompareAndSwap(prev, t) {
					break
				}
			}
		}(cs[i], w.from+i)
	}
	wg.Wait()
	w.wall = time.Duration(lastDone.Load())
	w.mallocs, w.allocReqs = mallocs()-m0, n
	w.liveHeap = liveHeap()
	if err := w.merge(cs); err != nil {
		return w, err
	}
	if err := ctx.Err(); err != nil {
		return w, fmt.Errorf("hard deadline: %w", err)
	}
	return w, nil
}

// drive runs one window of the workload's load shape.
func drive(ctx context.Context, wl *workload, in *instance, chunk int, d time.Duration, tr *tracer, maxReqs int) (*window, error) {
	if wl.rate > 0 {
		if maxReqs > 0 {
			d = min(d, time.Duration(float64(maxReqs)/wl.rate*float64(time.Second)))
		}
		return openLoop(ctx, wl, in, d, tr)
	}
	return closedLoop(ctx, wl, in, chunk, d, tr, maxReqs)
}

// warmUp executes the instance's first requests untimed: lazily built
// walkers, slab growth and the cache pre-fill happen here, inside setup_s.
func warmUp(ctx context.Context, wl *workload, in *instance) error {
	w := &window{seen: map[uint64]outcome{}}
	cs := newClients(wl.clients, 0)
	if wl.rate > 0 {
		cs = newClients(in.warm, 0) // submitted together, so they share batches
	}
	runPass(ctx, wl, in, cs, nil, 0, in.warm)
	in.cursor = in.warm
	if err := w.merge(cs); err != nil {
		return err
	}
	if w.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d requests failed: %w", w.failed, in.warm, w.firstErr)
	}
	return nil
}
