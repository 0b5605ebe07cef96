package congest

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Sharded execution: the network's nodes are partitioned into S contiguous,
// degree-balanced ranges ("shards"), each a node half plus the edge half
// over its nodes' outgoing edges (kernel.go). With S = 1 — the default —
// Run drives the one shard on the caller's goroutine; with S > 1 each
// shard gets a worker goroutine and the transfer buffers cross a round
// barrier. Results are bit-identical at every S (see doc.go).
//
// The cost of sharding is the barrier, crossed twice per round. Workers
// spin before they park (roundBarrier), so while they fit GOMAXPROCS
// sharding pays from a few hundred nodes of Phase-1 traffic up
// (BenchmarkShardedWalk in internal/core is the crossover table); with
// more shard workers than Ps every crossing is a park and a wake-up.

// shard is one contiguous slice of the network: nodes [nodeLo, nodeHi)
// and the directed edges leaving them. out[d] of its edge half is the
// transfer buffer for shard d; same-shard deliveries take the same route,
// so the merge order is uniform.
type shard struct {
	nodeHalf
	edgeHalf
	id int
	// work is the shard's worker body in a multi-shard Run, bound once
	// when the shard is built so that starting its goroutine allocates
	// nothing.
	work func()
}

// roundBarrier synchronizes the shard workers twice per round. The last
// arriver runs the serial section (round bookkeeping) alone — everyone
// else is inside wait — and only then publishes the next generation, so
// serial state reaches every worker through that one atomic store.
//
// An early arriver spins before it parks: a round is tens of microseconds
// per shard, and a worker that sleeps with nothing else to run takes its
// OS thread down, so the futex wake-up costs as much as the round it
// waited for. A waiter polls the generation for up to spinBudget, yielding
// every spinPolls polls so the collector and other goroutines are never
// starved, then falls back to the mutex + cond park. Spinning needs a P
// per party: when the shard workers in flight outnumber GOMAXPROCS (one
// wide barrier, or several pool workers serving sharded requests) a
// spinner holds the P a peer needs and keeps it from going idle to steal
// that peer, so there a waiter parks at once.
type roundBarrier struct {
	parties int32
	procs   int32 // GOMAXPROCS at open
	arrived atomic.Int32
	gen     atomic.Uint64

	mu     sync.Mutex // orders a parker's generation check against the release
	cond   sync.Cond
	parked int // waiters inside cond.Wait, under mu
}

// shardParties counts the parties of every open barrier; process-wide
// because the Ps it is compared against are. It only ever selects between
// spinning and parking.
var shardParties atomic.Int32

// spinBudget bounds how long a waiter polls before it parks. Swept on
// shard-walks p50 (CHANGES.md, PR 19): latency falls steeply up to
// ≈100 µs and is flat from 200 µs to 5 ms, so 1 ms — a few Phase-1 rounds
// — sits on the plateau and caps what a descheduled peer can cost.
const (
	spinBudget = time.Millisecond
	spinPolls  = 100
)

// open readies the barrier for one Run's parties; close retires them.
func (b *roundBarrier) open(parties int) {
	b.parties = int32(parties)
	b.procs = int32(runtime.GOMAXPROCS(0))
	b.cond.L = &b.mu
	shardParties.Add(b.parties)
}

func (b *roundBarrier) close() { shardParties.Add(-b.parties) }

// wait blocks until all parties arrive; the last arriver runs serial (if
// non-nil) before releasing the rest.
func (b *roundBarrier) wait(serial func()) {
	gen := b.gen.Load() // cannot advance before this party's own arrival
	if b.arrived.Add(1) == b.parties {
		if serial != nil {
			serial()
		}
		b.arrived.Store(0)
		b.mu.Lock()
		b.gen.Store(gen + 1)
		parked := b.parked
		b.mu.Unlock()
		if parked > 0 {
			b.cond.Broadcast()
		}
		return
	}
	if b.spin(gen) {
		return
	}
	b.mu.Lock()
	b.parked++
	for b.gen.Load() == gen {
		b.cond.Wait()
	}
	b.parked--
	b.mu.Unlock()
}

// spin polls for the release of generation gen; false means park. The
// clock is first read at the first yield, so a short wait reads none.
func (b *roundBarrier) spin(gen uint64) bool {
	if shardParties.Load() > b.procs {
		return false
	}
	var deadline time.Time
	for polls := 1; b.gen.Load() == gen; polls++ {
		if polls%spinPolls != 0 {
			continue
		}
		if now := time.Now(); deadline.IsZero() {
			deadline = now.Add(spinBudget)
		} else if now.After(deadline) {
			return false
		}
		runtime.Gosched()
	}
	return true
}

// planShards returns the S+1 node boundaries of a degree-balanced
// contiguous partition: boundary i is the smallest node v (≥ boundary i-1)
// whose half-edge prefix off[v] reaches i/S of the total, so every shard
// owns about the same number of directed edges. On edgeless graphs the
// split falls back to equal node counts. Shards may be empty (a star hub
// can hold more than 1/S of all edges by itself); empty shards simply idle.
func planShards(off []int32, n, s int) []int32 {
	bounds := make([]int32, s+1)
	bounds[s] = int32(n)
	total := int64(off[n])
	for i := 1; i < s; i++ {
		if total == 0 {
			bounds[i] = int32(i * n / s)
			continue
		}
		target := int32(total * int64(i) / int64(s))
		// Smallest v with off[v] >= target, at or after the previous bound.
		lo, hi := bounds[i-1], int32(n)
		for lo < hi {
			mid := (lo + hi) >> 1
			if off[mid] < target {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		bounds[i] = lo
	}
	return bounds
}

// SetShards partitions the network into s shards (clamped to [1, n]).
// Repartitioning drops any in-flight messages left by an aborted run,
// exactly like the reset at the start of the next Run would. Not safe to
// call concurrently with Run.
func (n *Network) SetShards(s int) {
	nn := n.g.N()
	if s < 1 {
		s = 1
	}
	if s > nn {
		s = nn
	}
	n.reset()
	n.applyShardBounds(planShards(n.off, nn, s))
}

// applyShardBounds rebuilds the shards over the given node boundaries
// (len s+1, bounds[0]==0, bounds[s]==n). Callers must have reset the old
// layout first. The queue slab and transfer buffers (emptied) carry over
// when the shard count is unchanged (Reshape never changes it), and so
// does the ShardCounters block; SetShards to a different count detaches
// it.
func (n *Network) applyShardBounds(bounds []int32) {
	s := len(bounds) - 1
	if n.counters != nil && len(n.counters) != s {
		n.counters = nil
	}
	var shardOf []int32 // node -> shard; a single shard needs no lookup
	if s > 1 {
		shardOf = make([]int32, n.g.N())
	}
	old := n.shards
	n.shards = make([]*shard, s)
	for i := range n.shards {
		lo, hi := bounds[i], bounds[i+1]
		sh := &shard{
			nodeHalf: nodeHalf{net: n, nodeLo: lo, nodeHi: hi, stepSet: newSched(int(hi - lo))},
			edgeHalf: newEdgeHalf(&n.links, lo, hi, shardOf, s),
			id:       i,
		}
		sh.ctx = Ctx{net: n, sh: sh}
		sh.work = func() {
			defer n.run.wg.Done()
			sh.loop(&n.run)
		}
		if len(old) == s {
			sh.adopt(&old[i].edgeHalf)
		}
		n.shards[i] = sh
		if s > 1 {
			for v := lo; v < hi; v++ {
				shardOf[v] = int32(i)
			}
		}
	}
}

// Shards reports the current shard count.
func (n *Network) Shards() int { return len(n.shards) }

// shardRun is the shared control state of a multi-shard Run: the
// protocol, the barrier, the workers' WaitGroup and the serial verdict
// the last arriver publishes each round. The network keeps one
// (Network.run) and reuses it from Run to Run.
type shardRun struct {
	net    *Network
	proto  Proto
	halter Halter
	bar    roundBarrier
	wg     sync.WaitGroup
	stop   bool
	err    error
}

// advance runs the verdict under the barrier lock, so every worker
// observes it after its wait returns.
func (sr *shardRun) advance() {
	queued := 0
	for _, sh := range sr.net.shards {
		queued += sh.active.count
	}
	sr.stop, sr.err = sr.net.verdict(sr.halter, queued)
}

// runSharded is the multi-shard driver. The calling goroutine drives
// shard 0; shards 1..S-1 get a goroutine each for the duration of the run.
func (n *Network) runSharded(p Proto, halter Halter) error {
	sr := &n.run
	sr.net, sr.proto, sr.halter, sr.stop, sr.err = n, p, halter, false, nil
	sr.bar.open(len(n.shards))
	defer sr.bar.close()
	sr.wg.Add(len(n.shards) - 1)
	for _, sh := range n.shards[1:] {
		go sh.work()
	}
	n.shards[0].loop(sr)
	sr.wg.Wait()
	sr.proto, sr.halter = nil, nil // let go of the caller's protocol
	n.collectShards()
	if n.counters != nil {
		n.counters.add(n.shards)
	}
	return sr.err
}

// loop is the per-shard worker body: Init over the shard's nodes, then the
// two-barrier round cadence — drain owned edges into the transfer buffers,
// barrier, merge the buffers addressed here in ascending source order and
// step, barrier (with the serial verdict) — until the verdict stops the run.
func (sh *shard) loop(sr *shardRun) {
	p := sr.proto
	sh.init(p)
	sh.wait(sr, sr.advance)
	for !sr.stop {
		sh.drain()
		sh.wake()
		sh.wait(sr, nil)
		for _, src := range sr.net.shards {
			sh.mergeIn(src.out[sh.id])
		}
		sh.step(p)
		sh.wait(sr, sr.advance)
	}
}

// wait crosses the round barrier, charging the time to this shard.
func (sh *shard) wait(sr *shardRun, serial func()) {
	t0 := time.Now()
	sr.bar.wait(serial)
	sh.waitNs += time.Since(t0).Nanoseconds()
}

// ShardStats is a snapshot of a ShardCounters block: protocol steps
// executed and messages merged per shard, plus the wall-clock time each
// shard spent at round barriers — spinning, parked, or running the
// serial verdict.
type ShardStats struct {
	Shards      int             `metric:"-"` // the shard label's range
	Stepped     []int64         `metric:"steps_total,counter,index=shard"`
	Delivered   []int64         `metric:"delivered_total,counter,index=shard"`
	BarrierWait []time.Duration `metric:"barrier_wait_seconds_total,counter,index=shard"`
}

// Occupancy returns each shard's fraction of the total protocol steps —
// 1/S everywhere is a perfectly balanced partition. Nil when no work ran.
func (st ShardStats) Occupancy() []float64 {
	var total int64
	for _, s := range st.Stepped {
		total += s
	}
	if total == 0 {
		return nil
	}
	out := make([]float64, len(st.Stepped))
	for i, s := range st.Stepped {
		out[i] = float64(s) / float64(total)
	}
	return out
}

// ShardCounters is a block of per-shard work counters, one entry per
// shard (make(ShardCounters, s)), cumulative since it was made. Every
// sharded network attached to it (WithShardCounters) adds its
// shard-local tallies once, at the end of every Run, so one block sums
// many networks of the same shard count (a Service's pooled workers).
// Safe for concurrent use, also with Run.
type ShardCounters []struct{ stepped, delivered, waitNs atomic.Int64 }

// add adds the shards' tallies of the ended Run to the block.
func (c ShardCounters) add(shards []*shard) {
	for i, sh := range shards {
		c[i].stepped.Add(sh.stepped)
		c[i].delivered.Add(sh.delivered)
		c[i].waitNs.Add(sh.waitNs)
	}
}

// Stats snapshots the block.
func (c ShardCounters) Stats() ShardStats {
	s := len(c)
	st := ShardStats{Shards: s, Stepped: make([]int64, s), Delivered: make([]int64, s), BarrierWait: make([]time.Duration, s)}
	for i := range c {
		st.Stepped[i] = c[i].stepped.Load()
		st.Delivered[i] = c[i].delivered.Load()
		st.BarrierWait[i] = time.Duration(c[i].waitNs.Load())
	}
	return st
}

// WithShardCounters makes the network add its per-shard tallies to c,
// which must have as many shards as the network; a SetShards to another
// count detaches it. Without a block the tallies are dropped.
func WithShardCounters(c ShardCounters) Option {
	return func(n *Network) { n.counters = c }
}

// QueueSlots reports the message slots of the edge queues, summed over
// the in-process shards: used is how many the last Run ever held at once
// (its slabs' lengths; the next Run starts from zero), retained how many
// the slabs keep allocated across runs. Not safe to call concurrently
// with Run.
func (n *Network) QueueSlots() (used, retained int) {
	for _, sh := range n.shards {
		used += len(sh.pool.msgs)
		retained += cap(sh.pool.msgs)
	}
	return used, retained
}

// WithShards partitions the network into s parallel shards at
// construction; see SetShards.
func WithShards(s int) Option {
	return func(n *Network) { n.SetShards(s) }
}
