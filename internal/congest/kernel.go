package congest

import (
	"fmt"
	"math"
	"sort"

	"distwalk/internal/fault"
	"distwalk/internal/graph"
)

// The round kernel. Every transport — the single-shard network, the
// in-process shard workers and the remote ShardEngine — runs a round as
// the same two steps: an edge half drains its contiguous directed-edge
// range, in ascending edge order, into per-destination transfer buffers;
// then each node half merges the buffers addressed to it in ascending
// source order and steps its scheduled nodes in ascending ID order. The
// transports differ only in how the buffers move (not at all, across a
// barrier, over a wire), so the code that charges a round exists once:
// enqueue, drain, mergeIn, wake, step, verdict and collect below. See
// doc.go for why this makes the simulated execution independent of the
// transport.

// links is the transport state one process holds for a topology: the
// flat half-edge index, the per-edge queues, capacities, the compiled
// fault schedules and the current round. A Network embeds one; a
// ShardEngine owns one of its own, slaved to its client's round.
type links struct {
	g     *graph.G
	cap   int
	capOf []int32 // optional per-directed-edge capacity (overrides cap)

	// The j-th half-edge of node u has directed index off[u]+j and carries
	// messages u -> adj[u][j].To. nbrTo[off[u]:off[u+1]] lists u's neighbor
	// IDs in ascending order and nbrEdge the matching directed indices
	// (parallel edges form a contiguous run, in adjacency order). Bit u of
	// multi says u has parallel edges, so a send by port must still choose.
	off     []int32
	nbrTo   []int32
	nbrEdge []int32
	multi   []uint64

	// queues[e] is directed edge e's FIFO header. The messages themselves
	// live in the slotPool of the edge half that owns e, so a header is
	// only ever touched by that half.
	queues []queue

	flt   *faultState // compiled fault plan, nil on the fault-free path; see fault.go
	round int
}

// halfIndex sorts one node's neighbor segment by (To, directed index).
// The key is total (directed indices are distinct), so the sorted order
// is unique regardless of sort stability.
type halfIndex struct {
	to, edge []int32
}

func (s *halfIndex) Len() int { return len(s.to) }
func (s *halfIndex) Less(i, j int) bool {
	if s.to[i] != s.to[j] {
		return s.to[i] < s.to[j]
	}
	return s.edge[i] < s.edge[j]
}
func (s *halfIndex) Swap(i, j int) {
	s.to[i], s.to[j] = s.to[j], s.to[i]
	s.edge[i], s.edge[j] = s.edge[j], s.edge[i]
}

// buildIndex (re)builds the directed-edge machinery — off, nbrTo, nbrEdge,
// multi and the queues — from the current l.g. Shared by NewNetwork, Reshape
// and NewShardEngine so the index layout cannot drift between them.
func (l *links) buildIndex() {
	nn := l.g.N()
	l.off = make([]int32, nn+1)
	for v := 0; v < nn; v++ {
		l.off[v+1] = l.off[v] + int32(l.g.Degree(graph.NodeID(v)))
	}
	total := l.off[nn]
	l.queues = make([]queue, total)
	l.nbrTo = make([]int32, total)
	l.nbrEdge = make([]int32, total)
	l.multi = make([]uint64, (nn+63)/64)
	for v := 0; v < nn; v++ {
		lo, hi := l.off[v], l.off[v+1]
		for j, h := range l.g.Neighbors(graph.NodeID(v)) {
			l.nbrTo[lo+int32(j)] = int32(h.To)
			l.nbrEdge[lo+int32(j)] = lo + int32(j)
		}
		// Sort by (To, directed index): the directed-index tie-break keeps
		// parallel edges in adjacency order, so enqueue's least-loaded
		// tie-break matches the old map index exactly.
		sort.Sort(&halfIndex{to: l.nbrTo[lo:hi], edge: l.nbrEdge[lo:hi]})
		for i := lo + 1; i < hi; i++ {
			if l.nbrTo[i] == l.nbrTo[i-1] {
				l.multi[v>>6] |= 1 << uint(v&63)
				break
			}
		}
	}
}

// hasParallel reports whether some neighbor of v is joined to it by more
// than one edge.
func (l *links) hasParallel(v graph.NodeID) bool { return l.multi[v>>6]&(1<<uint(v&63)) != 0 }

// nbrIndex returns the position in the neighbor index of the first
// directed edge from→to (parallel edges follow contiguously), or -1 when
// to is not a neighbor of from.
func (l *links) nbrIndex(from, to graph.NodeID) int32 {
	lo, hi := l.off[from], l.off[from+1]
	end := hi
	for lo < hi {
		mid := (lo + hi) >> 1
		if l.nbrTo[mid] < int32(to) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == end || l.nbrTo[lo] != int32(to) {
		return -1
	}
	return lo
}

// wordsOK is the one check of a payload's declared size: at least one
// word and no more than Message.words (a uint16) holds without wrapping.
func wordsOK(words int) bool { return words >= 1 && words <= math.MaxUint16 }

// sendError explains why a send fails validation at the protocol
// boundary: a payload size wordsOK refuses, a destination that is not a
// neighbor or — by port, where to is None — a port the sender lacks.
func sendError(from, to graph.NodeID, port, words int) error {
	switch {
	case !wordsOK(words):
		return fmt.Errorf("congest: node %d sent an invalid payload", from)
	case to == graph.None:
		return fmt.Errorf("congest: node %d sent on port %d, which it does not have", from, port)
	}
	return fmt.Errorf("congest: node %d sent to non-neighbor %d", from, to)
}

// crashed reports whether v is down at the current round: scheduled down
// (crash or churn window) by the installed fault plan. The fault-free
// test inlines into the per-message and per-step callers.
func (l *links) crashed(v graph.NodeID) bool {
	return l.flt != nil && l.flt.down(v, l.round)
}

// resetRun rewinds the round counter and the per-run fault decision state.
func (l *links) resetRun() {
	l.round = 0
	if l.flt != nil {
		l.flt.resetRun()
	}
}

// edgeHalf owns a contiguous directed-edge range: which of its edges
// have queued messages, the one slab those messages sit in, this round's
// outbound transfer buffers, and the counters and first loss its
// deliveries charged this run. The edges' queue headers and fault state
// live in l; every send on an owned edge goes through enqueue and every
// delivery through drain, so nothing else reads or writes the slab.
type edgeHalf struct {
	l      *links
	edgeLo int32
	active *sched   // local edge indices (global edge - edgeLo)
	pool   slotPool // the queued messages of every owned edge

	// out[d] holds this round's deliveries for destination d, in ascending
	// edge order; dstOf maps a receiving node to its destination (nil: one
	// destination takes everything).
	dstOf []int32
	out   [][]Message

	res  Result
	loss LossRecord
}

// newEdgeHalf builds the edge half for the edges of nodes [lo, hi),
// delivering into dsts transfer buffers.
func newEdgeHalf(l *links, lo, hi int32, dstOf []int32, dsts int) edgeHalf {
	return edgeHalf{
		l:      l,
		edgeLo: l.off[lo],
		active: newSched(int(l.off[hi] - l.off[lo])),
		pool:   slotPool{free: noSlot},
		dstOf:  dstOf,
		out:    make([][]Message, dsts),
	}
}

// adopt takes over, emptied, the slab and transfer buffers of the half
// this one replaces (already reset, same number of destinations), so a
// rebuilt partition keeps the capacity the traffic had grown.
func (h *edgeHalf) adopt(old *edgeHalf) {
	h.pool = old.pool
	for d := range h.out {
		h.out[d] = old.out[d][:0]
	}
}

// reset drops whatever an ended (possibly aborted) run left queued and
// clears the per-run counters (drain empties the transfer buffers itself).
// Only edges still active have a non-zero header, so this is O(active);
// the slab is truncated, not released, and the next run fills it from
// slot 0 again: the steady state of repeated runs allocates nothing.
func (h *edgeHalf) reset() {
	h.active.drain(func(le int32) { h.l.queues[h.edgeLo+le] = queue{} })
	h.pool.reset()
	h.res = Result{}
	h.loss = LossRecord{}
}

// enqueue validates a send and queues it on a directed edge from→to;
// from must be a node whose edges this half owns. With parallel edges the
// least-loaded one is used (ties to the first in adjacency order).
func (h *edgeHalf) enqueue(from, to graph.NodeID, kind uint16, words int, w0, w1, w2, w3 uint64) error {
	l := h.l
	i := l.nbrIndex(from, to)
	if i < 0 || !wordsOK(words) {
		return sendError(from, to, 0, words)
	}
	best := l.nbrEdge[i]
	for j, end := i+1, l.off[from+1]; j < end && l.nbrTo[j] == int32(to); j++ {
		if e := l.nbrEdge[j]; l.queues[e].size < l.queues[best].size {
			best = e
		}
	}
	m := h.put(best, from, to, kind, words)
	m.W[0], m.W[1], m.W[2], m.W[3] = w0, w1, w2, w3
	return nil
}

// enqueuePort is enqueue addressed by the sender's port. A node without
// parallel edges has nothing to choose — its port IS the directed edge;
// one with them goes through enqueue, so the least-loaded pick does not
// depend on how a send is addressed.
func (h *edgeHalf) enqueuePort(from graph.NodeID, port int, kind uint16, words int, w0, w1, w2, w3 uint64) error {
	l := h.l
	hs := l.g.Neighbors(from)
	if uint(port) >= uint(len(hs)) || !wordsOK(words) {
		return sendError(from, graph.None, port, words)
	}
	to := hs[port].To
	if l.hasParallel(from) {
		return h.enqueue(from, to, kind, words, w0, w1, w2, w3)
	}
	m := h.put(l.off[from]+int32(port), from, to, kind, words)
	m.W[0], m.W[1], m.W[2], m.W[3] = w0, w1, w2, w3
	return nil
}

// put queues a validated message on directed edge e and returns its slot
// for the caller to store the payload words in place. A message entering
// an idle delayed link starts its transit now: eligible 1+delay rounds out
// (max with any pending release, so back-to-back bursts stay serialized).
func (h *edgeHalf) put(e int32, from, to graph.NodeID, kind uint16, words int) *Message {
	l := h.l
	q := &l.queues[e]
	m := h.pool.push(q)
	m.From, m.To = from, to
	m.Kind, m.words = kind, uint16(words)
	if f := l.flt; f != nil && f.delay != nil {
		if d := f.delay[e]; d > 0 && q.size == 1 {
			if r := int32(l.round) + 1 + d; r > f.release[e] {
				f.release[e] = r
			}
		}
	}
	h.active.add(e - h.edgeLo)
	return m
}

// drain moves up to cap messages per active edge into the transfer
// buffers, visiting edges in ascending directed-index order — the
// deterministic ID order of the model. Counters are charged here, at the
// sending side: every fault decision is per-edge state owned by this
// half, so charging order across halves cannot change any decision (see
// internal/fault's determinism argument). Per message the crash check
// precedes the lossy-link roll, so a message to a down receiver never
// consumes a drop-decision ordinal.
func (h *edgeHalf) drain() {
	for d := range h.out {
		h.out[d] = h.out[d][:0]
	}
	l := h.l
	f := l.flt
	round := int32(l.round)
	h.active.drain(func(le int32) {
		e := h.edgeLo + le
		q := &l.queues[e]
		slow := f != nil && f.delay != nil && f.delay[e] > 0
		if slow && round < f.release[e] {
			// Still in transit: skip this round but keep the edge scheduled
			// (its scheduler word is consumed, so the re-add — like the
			// leftover one below — cannot be visited twice this round).
			h.res.Faults.Delayed++
			h.active.add(le)
			return
		}
		depth := int(q.size)
		if depth > h.res.MaxQueue {
			h.res.MaxQueue = depth
		}
		k := l.cap
		if l.capOf != nil {
			k = int(l.capOf[e])
		}
		if k > depth {
			k = depth
		}
		for i := 0; i < k; i++ {
			m := h.pool.pop(q)
			if l.crashed(m.To) {
				h.res.Faults.Dropped++
				h.noteLoss(e, m, false)
				continue
			}
			if f != nil && f.drop != nil {
				if th := f.drop[e]; th != 0 {
					f.seq[e]++
					if fault.Roll(f.key, uint64(e), f.seq[e]) < th {
						h.res.Faults.LinkDropped++
						h.noteLoss(e, m, true)
						continue
					}
				}
			}
			d := int32(0)
			if h.dstOf != nil {
				d = h.dstOf[m.To]
			}
			h.out[d] = append(h.out[d], *m)
			h.res.Messages++
			h.res.Words += int64(m.words)
		}
		if q.size > 0 {
			h.active.add(le)
		}
		if slow {
			// Serialize the slow link: next delivery no earlier than
			// 1+delay rounds from now.
			f.release[e] = round + 1 + f.delay[e]
		}
	})
}

// noteLoss records a dropped message if it is this half's first loss of
// the run.
func (h *edgeHalf) noteLoss(e int32, m *Message, link bool) {
	if !h.loss.Valid {
		h.loss = LossRecord{Valid: true, Link: link, Round: int32(h.l.round), Edge: e, From: m.From, To: m.To}
	}
}

// nodeHalf owns a contiguous node range [nodeLo, nodeHi): which of its
// nodes step this round, its awake list, the first protocol error one of
// its nodes raised, and the Ctx its protocol callbacks run under. The
// per-node slabs (inboxes, awake flags) live in net.
type nodeHalf struct {
	net    *Network
	nodeLo int32
	nodeHi int32

	stepSet    *sched         // local node indices (global node - nodeLo)
	awakeNodes []graph.NodeID // lazily-compacted list of awake nodes
	awakeCount int
	runErr     error
	ctx        Ctx

	// This Run's occupancy tallies, added to the network's ShardCounters
	// block (if any) when a sharded Run ends.
	stepped   int64
	delivered int64
	waitNs    int64
}

// reset clears what an ended (possibly aborted) run left scheduled. A
// non-empty inbox implies a stepSet entry and a set awake flag an
// awakeNodes entry, so sweeping those two visits all leftover state.
func (nh *nodeHalf) reset() {
	n := nh.net
	nh.stepSet.drain(func(lv int32) { n.inbox[nh.nodeLo+lv] = n.inbox[nh.nodeLo+lv][:0] })
	for _, v := range nh.awakeNodes {
		n.awake[v] = false
	}
	nh.awakeNodes = nh.awakeNodes[:0]
	nh.awakeCount = 0
	nh.runErr = nil
	nh.stepped, nh.delivered, nh.waitNs = 0, 0, 0
}

// init runs the protocol's Init on the half's nodes in ascending ID
// order, stopping at the first error.
func (nh *nodeHalf) init(p Proto) {
	ctx := &nh.ctx
	ctx.inbox = nil
	for v := nh.nodeLo; v < nh.nodeHi && nh.runErr == nil; v++ {
		ctx.node = graph.NodeID(v)
		p.Init(ctx)
	}
}

// mergeIn appends one source's transfer buffer to the inboxes of this
// half's nodes and schedules the receivers. Callers merge sources in
// ascending order; sources own ascending contiguous edge ranges and fill
// their buffers in ascending edge order, so every inbox fills in
// ascending global directed-edge order whatever the transport.
func (nh *nodeHalf) mergeIn(buf []Message) {
	inbox := nh.net.inbox
	for i := range buf {
		m := &buf[i]
		inbox[m.To] = append(inbox[m.To], *m)
		nh.stepSet.add(int32(m.To) - nh.nodeLo)
	}
	nh.delivered += int64(len(buf))
}

// wake compacts the awake list (SetActive(false) leaves stale entries)
// and schedules the nodes still awake.
func (nh *nodeHalf) wake() {
	n := nh.net
	live := nh.awakeNodes[:0]
	for _, v := range nh.awakeNodes {
		if !n.awake[v] {
			continue
		}
		if n.crashed(v) {
			// Crash-stop: the node can no longer keep itself awake, or the
			// run would never reach quiescence.
			n.awake[v] = false
			nh.awakeCount--
			continue
		}
		live = append(live, v)
		nh.stepSet.add(int32(v) - nh.nodeLo)
	}
	nh.awakeNodes = live
}

// step invokes the protocol on every scheduled node in ascending ID
// order (the drain order of the node scheduler). Steps of different
// halves may interleave; that is unobservable to protocols that keep the
// model's locality discipline (each node touches only its own state).
func (nh *nodeHalf) step(p Proto) {
	n := nh.net
	ctx := &nh.ctx
	nh.stepSet.drain(func(lv int32) {
		v := nh.nodeLo + lv
		if nh.runErr == nil && !n.crashed(graph.NodeID(v)) {
			ctx.node = graph.NodeID(v)
			ctx.inbox = n.inbox[v]
			p.Step(ctx)
			nh.stepped++
		}
		n.inbox[v] = n.inbox[v][:0]
	})
}

// verdict is the serial section at the end of a round (and after Init):
// given the number of directed edges still holding messages, it decides
// whether the run stops — protocol error (the lowest erring node's: halves
// are ascending and each keeps its first), halt, quiescence, round
// budget, cancellation, in that order — and otherwise opens the next
// round.
func (n *Network) verdict(halter Halter, queued int) (stop bool, err error) {
	awake := 0
	for _, sh := range n.shards {
		if sh.runErr != nil {
			return true, sh.runErr
		}
		awake += sh.awakeCount
	}
	if halter != nil && halter.Halted() {
		return true, nil
	}
	if queued == 0 && awake == 0 {
		return true, nil
	}
	if n.round >= n.maxRound {
		return true, fmt.Errorf("%w after %d rounds", ErrRoundLimit, n.round)
	}
	if n.ctx != nil && n.round&ctxCheckMask == 0 {
		if err := n.ctx.Err(); err != nil {
			return true, fmt.Errorf("congest: run aborted at round %d: %w", n.round, err)
		}
	}
	n.round++
	n.res.Rounds = n.round
	return false, nil
}

// collect folds one edge half's run outcome into the network's: counters
// sum and MaxQueue maxes (order-free), and the first loss is the minimum
// (round, edge) over the halves — exactly the loss a single ascending
// drain meets first. held reports that an earlier run of this request
// already recorded the request-level loss, which later runs never
// displace; callers latch it before their first collect.
func (n *Network) collect(res Result, l LossRecord, held bool) {
	n.res.Add(res)
	if !l.Valid || held {
		return
	}
	if !n.loss.Valid || l.Round < n.loss.Round ||
		(l.Round == n.loss.Round && l.Edge < n.loss.Edge) {
		n.loss = l
	}
}
