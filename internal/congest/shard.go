package congest

import (
	"sync"
	"time"
)

// Sharded execution: the network's nodes are partitioned into S contiguous,
// degree-balanced ranges ("shards"), each a node half plus the edge half
// over its nodes' outgoing edges (kernel.go). With S = 1 — the default —
// Run drives the one shard on the caller's goroutine; with S > 1 each
// shard gets a worker goroutine and the transfer buffers cross a round
// barrier. Results are bit-identical at every S (see doc.go).
//
// Sharding pays off when per-round work is large (big graphs, many tokens
// in flight); for small networks the barrier overhead dominates.

// shard is one contiguous slice of the network: nodes [nodeLo, nodeHi)
// and the directed edges leaving them. out[d] of its edge half is the
// transfer buffer for shard d; same-shard deliveries take the same route,
// so the merge order is uniform.
type shard struct {
	nodeHalf
	edgeHalf
	id int
}

// roundBarrier synchronizes the shard workers twice per round. The last
// arriver runs the serial section (round bookkeeping) under the barrier
// lock before releasing the others, so serial state is published to every
// worker with a single happens-before edge.
type roundBarrier struct {
	mu      sync.Mutex
	cond    sync.Cond
	parties int
	arrived int
	gen     uint64
}

func (b *roundBarrier) init(parties int) {
	b.parties = parties
	b.cond.L = &b.mu
}

// wait blocks until all parties arrive; the last arriver runs serial (if
// non-nil) before waking the rest.
func (b *roundBarrier) wait(serial func()) {
	b.mu.Lock()
	gen := b.gen
	b.arrived++
	if b.arrived == b.parties {
		if serial != nil {
			serial()
		}
		b.arrived = 0
		b.gen++
		b.mu.Unlock()
		b.cond.Broadcast()
		return
	}
	for b.gen == gen {
		b.cond.Wait()
	}
	b.mu.Unlock()
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
// layout first. Reshape uses it directly to keep an old partition's
// bounds over a rebuilt edge index.
func (n *Network) applyShardBounds(bounds []int32) {
	s := len(bounds) - 1
	var shardOf []int32 // node -> shard; a single shard needs no lookup
	if s > 1 {
		shardOf = make([]int32, n.g.N())
	}
	n.shards = make([]*shard, s)
	for i := range n.shards {
		lo, hi := bounds[i], bounds[i+1]
		sh := &shard{
			nodeHalf: nodeHalf{net: n, nodeLo: lo, nodeHi: hi, stepSet: newSched(int(hi - lo))},
			edgeHalf: newEdgeHalf(&n.links, lo, hi, shardOf, s),
			id:       i,
		}
		sh.ctx = Ctx{net: n, sh: sh}
		n.shards[i] = sh
		if s > 1 {
			for v := lo; v < hi; v++ {
				shardOf[v] = int32(i)
			}
		}
	}
}

// shardBounds returns the current partition's S+1 node boundaries.
func (n *Network) shardBounds() []int32 {
	bounds := make([]int32, len(n.shards)+1)
	for i, sh := range n.shards {
		bounds[i+1] = sh.nodeHi
	}
	return bounds
}

// Shards reports the current shard count.
func (n *Network) Shards() int { return len(n.shards) }

// shardRun is the shared control state of one multi-shard Run: the
// barrier and the serial verdict the last arriver publishes each round.
type shardRun struct {
	net    *Network
	halter Halter
	bar    roundBarrier
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
	sr := &shardRun{net: n, halter: halter}
	sr.bar.init(len(n.shards))
	var wg sync.WaitGroup
	for _, sh := range n.shards[1:] {
		wg.Add(1)
		go func(sh *shard) {
			defer wg.Done()
			sh.loop(sr, p)
		}(sh)
	}
	n.shards[0].loop(sr, p)
	wg.Wait()
	n.collectShards()
	return sr.err
}

// loop is the per-shard worker body: Init over the shard's nodes, then the
// two-barrier round cadence — drain owned edges into the transfer buffers,
// barrier, merge the buffers addressed here in ascending source order and
// step, barrier (with the serial verdict) — until the verdict stops the run.
func (sh *shard) loop(sr *shardRun, p Proto) {
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

// ShardStats is a snapshot of the per-shard occupancy counters, cumulative
// since the network was built (they survive Run resets): protocol steps
// executed and messages merged per shard, plus the wall-clock time each
// shard spent waiting at (or synchronizing through) round barriers. With
// one shard only Shards is set. Not safe to call concurrently with Run.
type ShardStats struct {
	Shards      int
	Stepped     []int64
	Delivered   []int64
	BarrierWait []time.Duration
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

// Add accumulates other into st (for aggregating across pooled networks);
// st must be zero or have the same shard count.
func (st *ShardStats) Add(other ShardStats) {
	if other.Shards == 0 {
		return
	}
	if st.Shards == 0 {
		st.Shards = other.Shards
		st.Stepped = make([]int64, len(other.Stepped))
		st.Delivered = make([]int64, len(other.Delivered))
		st.BarrierWait = make([]time.Duration, len(other.BarrierWait))
	}
	for i := range other.Stepped {
		st.Stepped[i] += other.Stepped[i]
		st.Delivered[i] += other.Delivered[i]
		st.BarrierWait[i] += other.BarrierWait[i]
	}
}

// ShardStats snapshots the network's per-shard occupancy counters.
func (n *Network) ShardStats() ShardStats {
	st := ShardStats{Shards: len(n.shards)}
	if st.Shards == 1 {
		return st
	}
	st.Stepped = make([]int64, st.Shards)
	st.Delivered = make([]int64, st.Shards)
	st.BarrierWait = make([]time.Duration, st.Shards)
	for i, sh := range n.shards {
		st.Stepped[i] = sh.stepped
		st.Delivered[i] = sh.delivered
		st.BarrierWait[i] = time.Duration(sh.waitNs)
	}
	return st
}

// WithShards partitions the network into s parallel shards at
// construction; see SetShards.
func WithShards(s int) Option {
	return func(n *Network) { n.SetShards(s) }
}
