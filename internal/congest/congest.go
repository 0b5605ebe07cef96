package congest

import (
	"context"
	"errors"
	"fmt"

	"distwalk/internal/graph"
	"distwalk/internal/rng"
)

// PayloadWords is the inline payload capacity of a Message in engine words.
// Every payload in this module fits (the CONGEST model only allows O(log n)
// bits per message anyway).
const PayloadWords = 4

// Message is a payload in flight on a directed edge: a protocol-defined
// Kind tag, the payload's size and up to PayloadWords words inline, plus
// the routing metadata. It is pointer-free, so per-edge queues are flat
// slabs the garbage collector never scans.
type Message struct {
	From, To graph.NodeID
	Kind     uint16
	words    uint16
	W        [PayloadWords]uint64
}

// Words reports the payload size in O(log n)-bit units, as declared by
// the sender (SendTo / SendPort) or by MakeMessage.
func (m Message) Words() int { return int(m.words) }

// Pack2 packs two 32-bit values into one engine word (little end first);
// Unpack2 reverses it. The protocols' message codecs share these.
func Pack2(a, b int32) uint64 { return uint64(uint32(a)) | uint64(uint32(b))<<32 }

// Unpack2 splits a word packed by Pack2.
func Unpack2(w uint64) (int32, int32) { return int32(uint32(w)), int32(uint32(w >> 32)) }

// Proto is a distributed protocol: per-node logic invoked by the engine.
// Init runs once for every node before round 1 (it may send and set
// activity); Step runs each round for every node that received messages or
// marked itself active.
type Proto interface {
	Init(ctx *Ctx)
	Step(ctx *Ctx)
}

// Halter is an optional interface for protocols whose goal is observable
// before quiescence (e.g. "some node verified the whole path"). The engine
// checks Halted after every round and stops the run when it returns true.
// This is a simulation-level observer: it consumes no rounds or messages.
type Halter interface {
	Halted() bool
}

// Result aggregates the cost of one or more protocol runs.
type Result struct {
	// Rounds is the number of synchronous rounds consumed.
	Rounds int `metric:"rounds_total,counter"`
	// Messages is the number of messages delivered.
	Messages int64 `metric:"messages_total,counter"`
	// Words is the total size of delivered messages in O(log n)-bit units.
	Words int64 `metric:"words_total,counter"`
	// MaxQueue is the deepest any directed-edge queue got.
	MaxQueue int `metric:"max_queue,gauge"`
	// Faults aggregates the injected-fault footprint (WithFaultPlan):
	// messages dropped at down receivers or lossy links,
	// deliveries deferred by link delays, nodes down during the run. The
	// zero value means a fault-free run.
	Faults FaultStats `metric:"faults_"`
}

// Add accumulates other into r (for summing across sequential phases).
func (r *Result) Add(other Result) {
	r.Rounds += other.Rounds
	r.Messages += other.Messages
	r.Words += other.Words
	r.Faults.add(other.Faults)
	if other.MaxQueue > r.MaxQueue {
		r.MaxQueue = other.MaxQueue
	}
}

// ErrRoundLimit is returned when a protocol does not reach quiescence
// within the configured round budget.
var ErrRoundLimit = errors.New("congest: round limit exceeded")

// DefaultMaxRounds is the per-run round budget applied when no
// WithMaxRounds/SetMaxRounds override is in effect.
const DefaultMaxRounds = 50_000_000

// Network is a simulated CONGEST network over a fixed graph.
type Network struct {
	links // the directed-edge index, queues, fault schedules and round

	seedMix uint64 // the mixed seed of the last Reseed; see SeedMix
	inbox   [][]Message
	awake   []bool // nodes that requested Step without messages

	// shards partition the nodes (and with them the directed edges) into
	// contiguous ascending ranges, each a node half plus an edge half of
	// the round kernel. There is always at least one; see shard.go.
	shards []*shard
	// counters is the block sharded Runs add their per-shard work to
	// (nil unless WithShardCounters); see ShardCounters.
	counters ShardCounters

	// The first loss since Reseed, and any invalid fault configuration
	// recorded at construction and returned by Run. See fault.go.
	loss   LossRecord
	optErr error

	res      Result
	maxRound int
	ctx      context.Context // optional; checked periodically by Run

	// Cluster execution (nil = in-process): the remote shard engines, the
	// node -> engine index, the per-engine send buffers and the reusable
	// receive buffer; see remote.go.
	remote   []RemoteShard
	remoteOf []int32
	pushBuf  [][]Message
	recvBuf  []Message

	ns nodeScratch // reusable per-node scratch for tree protocols
}

// nodeScratch is per-node working memory the tree protocols (BFS build,
// Convergecast) borrow instead of allocating O(n) arrays per call. It is
// sized once, on first use, and "cleared" by bumping the epoch: a slot is
// meaningful only when its stamp matches the current epoch, so starting a
// fresh protocol run costs one increment, not a sweep. acc/pending carry
// convergecast state and items the messages a Broadcast floods — runs
// execute one at a time, so a single scratch serves every protocol on
// the network. bfs, bc, cc and up are the one BFS build, Broadcast,
// Convergecast and Upcast run state, which a run's Proto points at
// instead of a fresh allocation, and collected the items an Upcast
// returns.
type nodeScratch struct {
	epoch     uint32
	stamp     []uint32
	acc       []Message
	pending   []int32
	items     []Message
	collected []Message
	bfs       bfsProto
	bc        broadcastProto
	cc        convergecastProto
	up        upcastProto
}

// scratch hands out the node scratch for one protocol run, advancing the
// epoch (and sweeping stamps on the rare uint32 wrap so stale stamps can
// never collide).
func (n *Network) scratch() *nodeScratch {
	s := &n.ns
	if s.stamp == nil {
		nn := n.g.N()
		s.stamp = make([]uint32, nn)
		s.acc = make([]Message, nn)
		s.pending = make([]int32, nn)
	}
	s.epoch++
	if s.epoch == 0 {
		clear(s.stamp)
		s.epoch = 1
	}
	return s
}

// ctxCheckMask controls how often Run polls the context: every
// (ctxCheckMask+1) rounds. Rounds are microseconds, so cancellation
// latency stays negligible while the common case pays one nil check.
const ctxCheckMask = 63

// Option configures a Network.
type Option func(*Network)

// WithEdgeCap sets the number of messages each directed edge delivers per
// round (default 1, the CONGEST bound). Values > 1 model the large-capacity
// variant used in Theorem 3.8.
func WithEdgeCap(c int) Option {
	return func(n *Network) {
		if c >= 1 {
			n.cap = c
		}
	}
}

// WithEdgeCapFunc sets a per-edge capacity: capOf(from, to) messages per
// round on the directed edge from→to (minimum 1). This models Theorem
// 3.8's hard instance exactly: the path edges of G'_n get (arbitrarily)
// large capacity while the tree edges keep the CONGEST budget — and the
// lower bound still holds because the tree is the bottleneck.
func WithEdgeCapFunc(capOf func(from, to graph.NodeID) int) Option {
	return func(n *Network) {
		if capOf == nil {
			return
		}
		n.capOf = make([]int32, len(n.queues))
		for v := 0; v < n.g.N(); v++ {
			for j, h := range n.g.Neighbors(graph.NodeID(v)) {
				c := capOf(graph.NodeID(v), h.To)
				if c < 1 {
					c = 1
				}
				n.capOf[n.off[v]+int32(j)] = int32(c)
			}
		}
	}
}

// WithMaxRounds sets the per-run round budget (default 50,000,000).
func WithMaxRounds(r int) Option {
	return func(n *Network) {
		if r >= 1 {
			n.maxRound = r
		}
	}
}

// NewNetwork builds a simulator over g whose protocols draw from seed
// (see SeedMix).
func NewNetwork(g *graph.G, seed uint64, opts ...Option) *Network {
	n := g.N()
	net := &Network{
		links:    links{g: g, cap: 1},
		maxRound: DefaultMaxRounds,
		inbox:    make([][]Message, n),
		awake:    make([]bool, n),
	}
	net.Reseed(seed)
	net.buildIndex()
	net.applyShardBounds([]int32{0, int32(n)})
	for _, opt := range opts {
		opt(net)
	}
	return net
}

// Graph returns the underlying topology.
func (n *Network) Graph() *graph.G { return n.g }

// SetContext installs ctx for subsequent runs: Run polls it periodically
// and aborts with an error wrapping ctx.Err() (errors.Is-able against
// context.Canceled / context.DeadlineExceeded) once it is done. Pass nil
// to clear. The check is amortized to one nil comparison per round, so
// uncancellable runs pay nothing.
func (n *Network) SetContext(ctx context.Context) { n.ctx = ctx }

// SetMaxRounds adjusts the per-run round budget after construction (the
// service layer re-applies a per-request budget on pooled networks).
// Values < 1 are ignored.
func (n *Network) SetMaxRounds(r int) {
	if r >= 1 {
		n.maxRound = r
	}
}

// Reseed installs seed as NewNetwork does, so a pooled network can be
// reused for a fresh deterministic execution: after Reseed(s) the network
// behaves bit for bit like a newly built NewNetwork(g, s). It touches no
// per-node state. The queue slab and the inboxes carry no protocol state,
// only capacity, and any in-flight messages left by an aborted run are
// dropped by the next Run's reset. The first-loss record (LossError) is
// request-scoped and clears here too; the installed fault plan and crash
// schedule persist — they are topology configuration.
func (n *Network) Reseed(seed uint64) {
	n.seedMix = rng.Mix64(seed + 0x9e3779b97f4a7c15)
	n.loss = LossRecord{}
}

// SeedMix returns the last Reseed's seed, mixed (the first splitmix64
// output of it). It is the seed component of every protocol draw: a
// protocol draws a value from (seed, what the draw decides), never from a
// stream, so it can recompute that draw at any time and at any node.
func (n *Network) SeedMix() uint64 { return n.seedMix }

// Run executes p until quiescence, a Halter stop, the round budget, or —
// when a context is installed with SetContext — cancellation. It returns
// the cost of this run. An invalid fault configuration recorded at
// construction (WithFaultPlan) fails every Run with that error.
//
// The three drivers run the same kernel (kernel.go) and are chosen by
// what the network can observe: attached remote engines, more than one
// shard, or neither. They differ only in how transfer buffers move.
func (n *Network) Run(p Proto) (Result, error) {
	if n.optErr != nil {
		return Result{}, n.optErr
	}
	n.reset()
	if n.ctx != nil {
		if err := n.ctx.Err(); err != nil {
			return n.res, fmt.Errorf("congest: run aborted before round 1: %w", err)
		}
	}
	halter, _ := p.(Halter)
	var err error
	switch {
	case len(n.remote) > 0:
		err = n.runRemote(p, halter)
	case len(n.shards) > 1:
		err = n.runSharded(p, halter)
	default:
		err = n.runLocal(p, halter)
	}
	if n.flt != nil {
		// Crashed is a post-run census (nodes down by the final round), not
		// a delivery-path counter, so it is charged once here for every
		// driver.
		n.res.Faults.Crashed = n.downCount()
	}
	return n.res, err
}

// reset clears the transient state of the previous run in every shard
// (queues are empty between runs that ended at quiescence; a halt, error,
// budget or cancellation end leaves leftovers, which are dropped here so
// the next run starts clean) and rewinds the round and counters.
func (n *Network) reset() {
	for _, sh := range n.shards {
		sh.edgeHalf.reset()
		sh.nodeHalf.reset()
	}
	n.resetRun()
	n.res = Result{}
}

// runLocal is the single-shard driver: the kernel's round on the caller's
// goroutine, the shard's one transfer buffer handed straight from its
// edge half to its node half. No barrier, no clock, no allocation.
func (n *Network) runLocal(p Proto, halter Halter) error {
	sh := n.shards[0]
	sh.init(p)
	for {
		if stop, err := n.verdict(halter, sh.active.count); stop {
			n.collectShards()
			return err
		}
		sh.drain()
		sh.wake()
		sh.mergeIn(sh.out[0])
		sh.step(p)
	}
}

// collectShards folds every in-process shard's counters and first loss
// into the run's Result (shard Rounds are 0).
func (n *Network) collectShards() {
	held := n.loss.Valid
	for _, sh := range n.shards {
		n.collect(sh.res, sh.loss, held)
	}
}

// Ctx is the per-node view handed to protocol callbacks. Each shard owns
// one, so activity and send bookkeeping stay shard-local.
type Ctx struct {
	net   *Network
	sh    *shard
	node  graph.NodeID
	inbox []Message
}

// Node returns the executing node's ID.
func (c *Ctx) Node() graph.NodeID { return c.node }

// Round returns the current round number (0 during Init).
func (c *Ctx) Round() int { return c.net.round }

// Inbox returns the messages delivered to this node this round. The slice
// is reused by the engine; protocols must not retain it across calls.
func (c *Ctx) Inbox() []Message { return c.inbox }

// SendTo enqueues a message to the neighbor to: kind, size in O(log n)-bit
// words and the payload words as scalars, which travel in registers to
// the queue slot. It is delivered no earlier than the next round, later
// under congestion; with parallel edges to the neighbor the least-loaded
// one is used. A node only ever writes its own outgoing edge queues, so
// the push, the activity mark and the error sink are all local to the
// caller's shard. In cluster mode the owning engine resolves the edge —
// the least-loaded pick needs queue depths only it knows — so the
// validated send is buffered for it unresolved (see remote.go).
func (c *Ctx) SendTo(to graph.NodeID, kind uint16, words int, w0, w1, w2, w3 uint64) {
	sh := c.sh
	if sh.runErr != nil {
		return
	}
	n := c.net
	if n.remote == nil {
		sh.runErr = sh.enqueue(c.node, to, kind, words, w0, w1, w2, w3)
		return
	}
	if !wordsOK(words) || n.nbrIndex(c.node, to) < 0 {
		sh.runErr = sendError(c.node, to, 0, words)
		return
	}
	n.pushRemote(c.node, to, kind, words, w0, w1, w2, w3)
}

// SendPort is SendTo addressed by port — the index into Neighbors() that
// a walk step has just drawn. Without parallel edges at the node the port
// is the directed edge and nothing is looked up; with them it names the
// neighbor and the least-loaded edge is picked exactly as SendTo would
// (see doc.go).
func (c *Ctx) SendPort(port int, kind uint16, words int, w0, w1, w2, w3 uint64) {
	sh := c.sh
	if sh.runErr != nil {
		return
	}
	n := c.net
	if n.remote == nil {
		sh.runErr = sh.enqueuePort(c.node, port, kind, words, w0, w1, w2, w3)
		return
	}
	hs := n.g.Neighbors(c.node)
	if uint(port) >= uint(len(hs)) || !wordsOK(words) {
		sh.runErr = sendError(c.node, graph.None, port, words)
		return
	}
	n.pushRemote(c.node, hs[port].To, kind, words, w0, w1, w2, w3)
}

// pushRemote buffers a validated send for the engine owning its sender.
func (n *Network) pushRemote(from, to graph.NodeID, kind uint16, words int, w0, w1, w2, w3 uint64) {
	d := n.remoteOf[from]
	n.pushBuf[d] = append(n.pushBuf[d], Message{From: from, To: to, Kind: kind, words: uint16(words),
		W: [PayloadWords]uint64{w0, w1, w2, w3}})
}

// Payload, Send and As adapt a type that encodes itself to SendTo for the
// one caller left that sends that way, benchmark/probes.go's flood;
// ROADMAP 2A(a) deletes them once the flood sends with SendPort.
type Payload interface {
	Words() int
	Kind() uint16
	Encode() [PayloadWords]uint64
}

func Send[V Payload](c *Ctx, to graph.NodeID, p V) {
	w := p.Encode()
	c.SendTo(to, p.Kind(), p.Words(), w[0], w[1], w[2], w[3])
}

func As[V interface{ Decode([PayloadWords]uint64) V }](m Message) V {
	var z V
	return z.Decode(m.W)
}

// SeedMix returns the network's SeedMix, the seed component of every
// draw the executing protocol makes.
func (c *Ctx) SeedMix() uint64 { return c.net.seedMix }

// Degree returns the executing node's degree.
func (c *Ctx) Degree() int { return c.net.g.Degree(c.node) }

// Neighbors returns the executing node's half-edges (local knowledge in the
// model: each node knows its neighbors' IDs). Callers must not modify it.
func (c *Ctx) Neighbors() []graph.Half { return c.net.g.Neighbors(c.node) }

// N returns the network size, which the model assumes nodes know.
func (c *Ctx) N() int { return c.net.g.N() }

// SetActive requests (or cancels) a Step call next round even if no
// messages arrive.
func (c *Ctx) SetActive(active bool) {
	awake, sh, v := c.net.awake, c.sh, c.node
	if active && !awake[v] {
		awake[v] = true
		sh.awakeCount++
		sh.awakeNodes = append(sh.awakeNodes, v)
	} else if !active && awake[v] {
		awake[v] = false
		sh.awakeCount--
	}
}
