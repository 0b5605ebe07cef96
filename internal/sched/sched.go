package sched

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"distwalk/internal/core"
)

// Defaults applied by Config.withDefaults.
const (
	DefaultMaxBatch = 8
	DefaultMaxDelay = 2 * time.Millisecond
)

// Config tunes the scheduler; zero values take the documented defaults.
type Config struct {
	// MaxBatch flushes a group as soon as it holds this many members
	// (default 8).
	MaxBatch int
	// MaxDelay flushes a non-empty group this long after its oldest
	// member was admitted (default 2ms): the latency a lone request pays
	// waiting for batchmates that never come.
	MaxDelay time.Duration
	// MaxInFlight bounds concurrently executing batches (default 1; the
	// service sets it to its worker-pool size).
	MaxInFlight int
}

func (c Config) withDefaults() Config {
	d := c
	if d.MaxBatch < 1 {
		d.MaxBatch = DefaultMaxBatch
	}
	if d.MaxDelay <= 0 {
		d.MaxDelay = DefaultMaxDelay
	}
	if d.MaxInFlight < 1 {
		d.MaxInFlight = 1
	}
	return d
}

// groupKey is the compatibility class of a request: one MANY-RANDOM-WALKS
// run can serve two requests iff their keys are equal (core.Params is a
// flat comparable struct).
type groupKey struct {
	params    core.Params
	maxRounds int
	ell       int
	topo      any
}

// group is one admission queue plus its flush-window state.
type group struct {
	key     groupKey
	members []*pending
	// due marks the delay window expired for the queued members (set by
	// the timer, and kept for members overflowing a size-triggered cut —
	// they have already waited a full window).
	due   bool
	epoch uint64 // guards stale timer fires; scheduler-unique per arming
	timer *time.Timer
}

// Scheduler coalesces requests into batches and hands them to exec. exec
// runs on a goroutine per batch, must block until the batch has executed
// (the scheduler counts the batch in flight until exec returns), and must
// deliver every member exactly once via Batch.Execute or Batch.Abort.
type Scheduler struct {
	cfg  Config
	seed uint64
	exec func(*Batch)

	mu       sync.Mutex
	groups   map[groupKey]*group
	inFlight int
	seq      uint64
	closed   bool
	st       Stats

	wg sync.WaitGroup
}

// New builds a scheduler deriving batch seeds from seed. See Config for
// the tuning and Scheduler for the exec contract.
func New(seed uint64, cfg Config, exec func(*Batch)) *Scheduler {
	c := cfg.withDefaults()
	return &Scheduler{
		cfg:    c,
		seed:   seed,
		exec:   exec,
		groups: make(map[groupKey]*group),
		st:     Stats{Occupancy: make([]uint64, c.MaxBatch)},
	}
}

// Submit admits req into its group's queue and returns the channel its
// single Result will be delivered on. It fails fast with ErrQueueFull
// when the group's queue is at its limit and with ErrSchedulerClosed
// after Close. ctx is watched only while the request is pending: if it is
// cancelled before the group flushes, the request is dropped from the
// batch (completing with the context error) and the batch runs as if it
// had never been submitted.
func (s *Scheduler) Submit(ctx context.Context, req Request) (<-chan Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("%w (request %d)", ErrSchedulerClosed, req.Key)
	}
	gk := groupKey{params: req.Params, maxRounds: req.MaxRounds, ell: req.Ell, topo: req.Topo}
	g := s.groups[gk]
	if g == nil {
		g = &group{key: gk}
		s.groups[gk] = g
	}
	// Reap members already cancelled before judging fullness, so a queue
	// of dead requests cannot reject a live one.
	g.members = s.dropCancelledLocked(g.members)
	if len(g.members) >= 4*s.cfg.MaxBatch {
		s.st.Rejected++
		return nil, fmt.Errorf("%w: %d requests pending for this config (request %d)",
			ErrQueueFull, len(g.members), req.Key)
	}
	p := &pending{req: req, ctx: ctx, seq: s.seq, out: make(chan Result, 1)}
	s.seq++
	// Watch for cancellation while pending: the callback wakes the group
	// so the member is dropped (and its caller unblocked) immediately,
	// not at the next flush trigger.
	p.stop = context.AfterFunc(ctx, func() { s.onCancel(gk) })
	g.members = append(g.members, p)
	s.st.Submitted++
	if len(g.members) == 1 {
		s.armTimerLocked(g)
	}
	s.tryFlushLocked(g)
	return p.out, nil
}

// Stats returns a snapshot of the scheduler's counters.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.st
	st.Occupancy = append([]uint64(nil), s.st.Occupancy...)
	return st
}

// Close aborts all queued members with ErrBatchAborted, rejects further
// Submits, and waits for in-flight batches to finish executing. Safe to
// call more than once and concurrently with Submit.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		for _, g := range s.groups {
			if g.timer != nil {
				g.timer.Stop()
			}
			for _, p := range g.members {
				p.release()
				s.st.Aborted++
				p.out <- Result{Err: fmt.Errorf("%w: request %d still pending at close",
					ErrBatchAborted, p.req.Key)}
			}
		}
		s.groups = make(map[groupKey]*group)
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// armTimerLocked starts g's delay window. Epochs are scheduler-unique, so
// a timer surviving its group (or an earlier arming) can never mark a
// later incarnation due.
func (s *Scheduler) armTimerLocked(g *group) {
	g.due = false
	s.seq++
	g.epoch = s.seq
	gk, epoch := g.key, g.epoch
	g.timer = time.AfterFunc(s.cfg.MaxDelay, func() { s.onDelay(gk, epoch) })
}

func (s *Scheduler) onDelay(gk groupKey, epoch uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	g := s.groups[gk]
	if s.closed || g == nil || g.epoch != epoch {
		return
	}
	g.due = true
	s.tryFlushLocked(g)
}

// onCancel is the pending-member cancellation watcher: waking the group
// makes tryFlushLocked drop the cancelled member(s) right away, so their
// callers unblock without waiting for the delay window.
func (s *Scheduler) onCancel(gk groupKey) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	if g := s.groups[gk]; g != nil {
		s.tryFlushLocked(g)
	}
}

// retireLocked removes a drained group. A later Submit recreates it
// fresh; retiring also stops the pending timer so due state cannot leak.
func (s *Scheduler) retireLocked(g *group) {
	if g.timer != nil {
		g.timer.Stop()
		g.timer = nil
	}
	g.due = false
	if s.groups[g.key] == g {
		delete(s.groups, g.key)
	}
}

// dropCancelledLocked completes and removes members whose context is
// already done, so they never enter a batch's composition.
func (s *Scheduler) dropCancelledLocked(members []*pending) []*pending {
	kept := members[:0]
	for _, p := range members {
		if err := p.ctx.Err(); err != nil {
			p.release()
			s.st.Cancelled++
			p.out <- Result{Err: fmt.Errorf("distwalk: request %d dropped from pending batch: %w",
				p.req.Key, err)}
			continue
		}
		kept = append(kept, p)
	}
	return kept
}

// tryFlushLocked cuts and launches as many batches from g as the flush
// policy (size reached, or delay due) and the in-flight cap allow.
// Cancelled members are dropped before each cut, so the batch's
// composition — and therefore its seed — is fixed only from live members.
func (s *Scheduler) tryFlushLocked(g *group) {
	for !s.closed {
		g.members = s.dropCancelledLocked(g.members)
		if len(g.members) == 0 {
			s.retireLocked(g)
			return
		}
		if s.inFlight >= s.cfg.MaxInFlight {
			return
		}
		reason := ReasonSize
		if len(g.members) < s.cfg.MaxBatch {
			if !g.due {
				return
			}
			reason = ReasonDelay
		}
		cut := min(len(g.members), s.cfg.MaxBatch)
		members := g.members[:cut:cut]
		for _, p := range members {
			// Post-flush cancellation is deliberately not observed: the
			// shared run completes for its surviving members regardless.
			p.release()
		}
		g.members = append([]*pending(nil), g.members[cut:]...)
		if len(g.members) == 0 {
			s.retireLocked(g)
		} else {
			// Overflow members rode the same admission burst; their delay
			// window counts as spent, so they flush as soon as a slot frees
			// instead of waiting out a fresh window.
			g.due = true
		}
		b := s.newBatchLocked(g.key, members, reason)
		s.inFlight++
		s.st.Batches++
		switch reason {
		case ReasonSize:
			s.st.FlushBySize++
		case ReasonDelay:
			s.st.FlushByDelay++
		}
		if cut-1 < len(s.st.Occupancy) {
			s.st.Occupancy[cut-1]++
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.exec(b)
			s.batchDone()
		}()
	}
}

// batchDone frees an execution slot and flushes whatever became eligible
// while it was busy (size-overflow members, delay-due groups).
func (s *Scheduler) batchDone() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inFlight--
	for _, g := range s.groups {
		s.tryFlushLocked(g)
		if s.inFlight >= s.cfg.MaxInFlight {
			return
		}
	}
}

// newBatchLocked fixes a cut's composition: members sorted by key (ties
// by source, then admission order), seed folded from the sorted keys.
func (s *Scheduler) newBatchLocked(gk groupKey, members []*pending, reason FlushReason) *Batch {
	sort.Slice(members, func(i, j int) bool {
		a, b := members[i], members[j]
		if a.req.Key != b.req.Key {
			return a.req.Key < b.req.Key
		}
		if a.req.Source != b.req.Source {
			return a.req.Source < b.req.Source
		}
		return a.seq < b.seq
	})
	keys := make([]uint64, len(members))
	for i, p := range members {
		keys[i] = p.req.Key
	}
	return &Batch{
		Ell:       gk.ell,
		Params:    gk.params,
		MaxRounds: gk.maxRounds,
		Seed:      BatchSeed(s.seed, keys),
		Reason:    reason,
		Topo:      gk.topo,
		sched:     s,
		members:   members,
	}
}

func (s *Scheduler) noteExecuted(info BatchInfo) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.st.BatchedWalks += uint64(info.Size)
	s.st.BatchCost.Add(info.Cost)
}

func (s *Scheduler) noteAborted(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.st.Aborted += uint64(n)
}
