package congest

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"distwalk/internal/fault"
	"distwalk/internal/graph"
)

// --- Partition planning ---

// offsetsOf builds the half-edge prefix array of g, exactly as NewNetwork
// does.
func offsetsOf(g *graph.G) []int32 {
	off := make([]int32, g.N()+1)
	for v := 0; v < g.N(); v++ {
		off[v+1] = off[v] + int32(g.Degree(graph.NodeID(v)))
	}
	return off
}

func TestPlanShardsInvariants(t *testing.T) {
	star, err := graph.Star(16)
	if err != nil {
		t.Fatal(err)
	}
	pathG, err := graph.Path(10)
	if err != nil {
		t.Fatal(err)
	}
	// Edges plus isolated nodes: 0-1, rest isolated.
	iso := graph.New(6)
	iso.AddEdge(0, 1)
	edgeless := graph.New(5)

	cases := []struct {
		name   string
		g      *graph.G
		shards int
	}{
		{"path/2", pathG, 2},
		{"path/3", pathG, 3},
		{"path/10", pathG, 10}, // S == n
		{"star/4", star, 4},    // hub holds 15 of 30 half-edges
		{"star/2", star, 2},
		{"isolated/3", iso, 3},
		{"edgeless/2", edgeless, 2},
		{"edgeless/5", edgeless, 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			off := offsetsOf(tc.g)
			n := tc.g.N()
			b := planShards(off, n, tc.shards)
			if len(b) != tc.shards+1 {
				t.Fatalf("got %d boundaries, want %d", len(b), tc.shards+1)
			}
			if b[0] != 0 || b[tc.shards] != int32(n) {
				t.Fatalf("boundaries %v do not cover [0,%d)", b, n)
			}
			for i := 1; i <= tc.shards; i++ {
				if b[i] < b[i-1] {
					t.Fatalf("boundaries %v not monotone", b)
				}
			}
			// Every node lands in exactly one shard by construction of
			// contiguous ranges; check the edge balance is within one
			// node's degree of the ideal split (up to the lumpiness of the
			// heaviest node, which a contiguous split cannot avoid).
			total := int64(off[n])
			if total == 0 {
				return
			}
			maxDeg := int64(0)
			for v := 0; v < n; v++ {
				if d := int64(tc.g.Degree(graph.NodeID(v))); d > maxDeg {
					maxDeg = d
				}
			}
			ideal := total / int64(tc.shards)
			for i := 0; i < tc.shards; i++ {
				load := int64(off[b[i+1]] - off[b[i]])
				if load > ideal+maxDeg {
					t.Errorf("shard %d carries %d half-edges, ideal %d, max degree %d (bounds %v)",
						i, load, ideal, maxDeg, b)
				}
			}
		})
	}
}

func TestSetShardsClamps(t *testing.T) {
	net := pathNet(t, 4, 1)
	net.SetShards(99) // S > n clamps to n
	if got := net.Shards(); got != 4 {
		t.Fatalf("Shards() = %d after SetShards(99) on n=4, want 4", got)
	}
	net.SetShards(0) // non-positive clamps to sequential
	if got := net.Shards(); got != 1 {
		t.Fatalf("Shards() = %d after SetShards(0), want 1", got)
	}
	net.SetShards(1) // S = 1 must take the single-shard driver
	if len(net.shards) != 1 {
		t.Fatalf("SetShards(1) left %d shards installed; want one", len(net.shards))
	}
}

// --- Bit-identity: sequential vs sharded on synthetic engine workloads ---

// stressProto exercises every engine surface at once: fan-out floods,
// SetActive-driven steps, keyed draws, and per-node receipt logs. Every
// node forwards each received token to a random neighbor for `hops` hops,
// and node 0 additionally stays awake for `awakeRounds` rounds emitting a
// fresh token each round. via picks the send front every token goes
// through — same draws, same neighbors, so the same execution.
type stressProto struct {
	seeds       int
	hops        int
	awakeRounds int
	via         sendVia

	got []int   // messages received per node (sized by prepare)
	sum []int64 // payload checksum per node
}

// prepare sizes the per-node logs; protocol state must exist before Run
// because sharded Init calls arrive concurrently.
func (p *stressProto) prepare(n int) *stressProto {
	p.got = make([]int, n)
	p.sum = make([]int64, n)
	return p
}

type tokenPayload struct{ hops, val int32 }

func (tokenPayload) Words() int   { return 2 }
func (tokenPayload) Kind() uint16 { return 7 }
func (p tokenPayload) Encode() [PayloadWords]uint64 {
	return [PayloadWords]uint64{Pack2(p.hops, p.val)}
}
func (tokenPayload) Decode(w [PayloadWords]uint64) tokenPayload {
	h, v := Unpack2(w[0])
	return tokenPayload{hops: h, val: v}
}

// sendVia is one addressing of a send: the Send adapter, SendPort by the
// drawn port, or SendTo by the drawn port's neighbor.
type sendVia int

const (
	viaSend sendVia = iota
	viaPort
	viaTo
)

func (v sendVia) String() string { return [...]string{"Send", "SendPort", "SendTo"}[v] }

// send hands tk, the node's i-th send this round, to a uniformly drawn
// neighbor.
func (p *stressProto) send(ctx *Ctx, i int, tk tokenPayload) {
	port := drawPort(ctx, i)
	w := tk.Encode()
	switch p.via {
	case viaPort:
		ctx.SendPort(port, tk.Kind(), tk.Words(), w[0], w[1], w[2], w[3])
	case viaTo:
		ctx.SendTo(ctx.Neighbors()[port].To, tk.Kind(), tk.Words(), w[0], w[1], w[2], w[3])
	default:
		Send(ctx, ctx.Neighbors()[port].To, tk)
	}
}

func (p *stressProto) Init(ctx *Ctx) {
	v := ctx.Node()
	if ctx.Degree() == 0 {
		return
	}
	for i := 0; i < p.seeds; i++ {
		p.send(ctx, i, tokenPayload{hops: int32(p.hops), val: int32(v)})
	}
	if v == 0 && p.awakeRounds > 0 {
		ctx.SetActive(true)
	}
}

func (p *stressProto) Step(ctx *Ctx) {
	v := ctx.Node()
	in := ctx.Inbox()
	for i, m := range in {
		tk := As[tokenPayload](m)
		p.got[v]++
		p.sum[v] += int64(tk.val)*31 + int64(tk.hops)
		if tk.hops > 0 && ctx.Degree() > 0 {
			p.send(ctx, i, tokenPayload{hops: tk.hops - 1, val: tk.val + 1})
		}
	}
	if v == 0 && p.awakeRounds > 0 {
		if ctx.Round() >= p.awakeRounds {
			ctx.SetActive(false)
			return
		}
		if ctx.Degree() > 0 {
			p.send(ctx, len(in), tokenPayload{hops: 3, val: int32(ctx.Round())})
		}
	}
}

// stressGraphs builds the identity-test topologies: a torus (uniform), a
// star (one shard owns the hub), a multigraph with parallel edges, and a
// graph with isolated nodes.
func stressGraphs(t *testing.T) map[string]*graph.G {
	t.Helper()
	torus, err := graph.Torus(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	star, err := graph.Star(33)
	if err != nil {
		t.Fatal(err)
	}
	multi := graph.New(6)
	for i := 0; i < 5; i++ {
		multi.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
	}
	multi.AddEdge(0, 1) // parallel edge: exercises the least-loaded tie-break
	multi.AddEdge(2, 3)
	multi.AddEdge(0, 5)
	iso := graph.New(12)
	for i := 0; i < 8; i++ {
		iso.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%8))
	}
	// Nodes 8..11 stay isolated: they must never step and never break the
	// partition.
	return map[string]*graph.G{"torus8x8": torus, "star33": star, "multi": multi, "isolated": iso}
}

func runStress(t *testing.T, g *graph.G, shards int, opts ...Option) (Result, *stressProto, error) {
	t.Helper()
	opts = append(opts, WithShards(shards))
	net := NewNetwork(g, 42, opts...)
	if shards > 1 && g.N() >= shards && net.Shards() != shards {
		t.Fatalf("Shards() = %d, want %d", net.Shards(), shards)
	}
	p := (&stressProto{seeds: 3, hops: 40, awakeRounds: 12}).prepare(g.N())
	res, err := net.Run(p)
	return res, p, err
}

func TestShardIdentityEngine(t *testing.T) {
	for name, g := range stressGraphs(t) {
		t.Run(name, func(t *testing.T) {
			seqRes, seqP, err := runStress(t, g, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, shards := range []int{2, 3, 4, 8} {
				res, p, err := runStress(t, g, shards)
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				if res != seqRes {
					t.Fatalf("shards=%d: Result %+v != sequential %+v", shards, res, seqRes)
				}
				for v := range seqP.got {
					if p.got[v] != seqP.got[v] || p.sum[v] != seqP.sum[v] {
						t.Fatalf("shards=%d node %d: got %d/sum %d, sequential %d/%d",
							shards, v, p.got[v], p.sum[v], seqP.got[v], seqP.sum[v])
					}
				}
			}
		})
	}
}

func TestShardIdentityWithCrashAndCaps(t *testing.T) {
	g, err := graph.Torus(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	variants := map[string][]Option{
		"crash":  {WithFaultPlan(&fault.Plan{Crashes: []fault.Crash{{Node: 7, Round: 5}, {Node: 20, Round: 1}}})},
		"cap3":   {WithEdgeCap(3)},
		"capfn":  {WithEdgeCapFunc(func(from, to graph.NodeID) int { return 1 + int(from+to)%3 })},
		"budget": {WithMaxRounds(9)},
	}
	for name, opts := range variants {
		t.Run(name, func(t *testing.T) {
			seqRes, seqP, seqErr := runStress(t, g, 1, opts...)
			for _, shards := range []int{2, 4} {
				res, p, err := runStress(t, g, shards, opts...)
				if (err == nil) != (seqErr == nil) ||
					errors.Is(err, ErrRoundLimit) != errors.Is(seqErr, ErrRoundLimit) {
					t.Fatalf("shards=%d: err %v, sequential err %v", shards, err, seqErr)
				}
				if res != seqRes {
					t.Fatalf("shards=%d: Result %+v != sequential %+v", shards, res, seqRes)
				}
				if err != nil {
					continue // counters compared; per-node state undefined post-abort
				}
				for v := range seqP.got {
					if p.got[v] != seqP.got[v] || p.sum[v] != seqP.sum[v] {
						t.Fatalf("shards=%d node %d diverged", shards, v)
					}
				}
			}
		})
	}
}

// TestShardIdentityTreeProtocols runs the engine's own generic tree
// protocols (BFS build, broadcast, convergecast, upcast) sharded and
// compares everything observable against the sequential run.
func TestShardIdentityTreeProtocols(t *testing.T) {
	g, err := graph.Torus(7, 9)
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		tree    []graph.NodeID
		costs   [4]Result
		sum     int64
		upcount int
	}
	runAll := func(shards int) (outcome, error) {
		var o outcome
		net := NewNetwork(g, 99, WithShards(shards))
		tree, res, err := BuildBFSTree(net, 5)
		if err != nil {
			return o, err
		}
		o.costs[0] = res
		o.tree = append([]graph.NodeID(nil), tree.Parent...)
		res, err = Broadcast(net, tree, []Message{intPayload(11).msg()}, nil)
		if err != nil {
			return o, err
		}
		o.costs[1] = res
		sum, res, err := Convergecast(net, tree,
			func(v graph.NodeID) Message { return intPayload(v).msg() },
			sumInts,
		)
		if err != nil {
			return o, err
		}
		o.costs[2] = res
		o.sum = int64(readInt(&sum))
		items, res, err := Upcast(net, tree, func(v graph.NodeID) []Message {
			if v%3 == 0 {
				return intMsgs(intPayload(v), intPayload(v*2))
			}
			return nil
		})
		if err != nil {
			return o, err
		}
		o.costs[3] = res
		o.upcount = len(items)
		for i := range items {
			o.sum += int64(readInt(&items[i]))
		}
		return o, nil
	}
	seq, err := runAll(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 4, 8} {
		got, err := runAll(shards)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if got.costs != seq.costs || got.sum != seq.sum || got.upcount != seq.upcount {
			t.Fatalf("shards=%d: outcome %+v != sequential %+v", shards, got, seq)
		}
		for v := range seq.tree {
			if got.tree[v] != seq.tree[v] {
				t.Fatalf("shards=%d: BFS parent of %d is %d, sequential %d", shards, v, got.tree[v], seq.tree[v])
			}
		}
	}
}

// TestShardedReuseAndReshard pins that one network can run sharded, be
// repartitioned, and keep producing sequential-identical executions, and
// that Reseed keeps working across modes.
func TestShardedReuseAndReshard(t *testing.T) {
	g, err := graph.Torus(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	ref := NewNetwork(g, 7)
	refP := (&stressProto{seeds: 2, hops: 25}).prepare(g.N())
	refRes, err := ref.Run(refP)
	if err != nil {
		t.Fatal(err)
	}
	net := NewNetwork(g, 7, WithShards(3))
	for _, shards := range []int{3, 2, 1, 4} {
		net.SetShards(shards)
		net.Reseed(7)
		p := (&stressProto{seeds: 2, hops: 25}).prepare(g.N())
		res, err := net.Run(p)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if res != refRes {
			t.Fatalf("shards=%d: Result %+v != reference %+v", shards, res, refRes)
		}
		for v := range refP.got {
			if p.got[v] != refP.got[v] {
				t.Fatalf("shards=%d node %d diverged after reshard", shards, v)
			}
		}
	}
}

func TestShardStatsOccupancy(t *testing.T) {
	g, err := graph.Torus(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	run := func(c ShardCounters) {
		t.Helper()
		n := NewNetwork(g, 3, WithShards(4), WithShardCounters(c))
		if _, err := n.Run((&stressProto{seeds: 4, hops: 30}).prepare(g.N())); err != nil {
			t.Fatal(err)
		}
	}
	one := make(ShardCounters, 4)
	run(one)
	st := one.Stats()
	if st.Shards != 4 || len(st.Stepped) != 4 {
		t.Fatalf("ShardStats %+v, want 4 shards", st)
	}
	var stepped, delivered int64
	for i := range st.Stepped {
		stepped += st.Stepped[i]
		delivered += st.Delivered[i]
	}
	if stepped == 0 || delivered == 0 {
		t.Fatalf("no sharded work recorded: %+v", st)
	}
	occ := st.Occupancy()
	total := 0.0
	for _, f := range occ {
		total += f
	}
	if total < 0.999 || total > 1.001 {
		t.Fatalf("occupancy %v does not sum to 1", occ)
	}
	// Aggregation across networks: two networks sharing one block add up
	// to twice the work of either.
	shared := make(ShardCounters, 4)
	run(shared)
	run(shared)
	if agg := shared.Stats(); agg.Stepped[0] != 2*st.Stepped[0] || agg.Delivered[3] != 2*st.Delivered[3] {
		t.Fatalf("shared ShardCounters: got %+v, want twice %+v", agg, st)
	}
	// A SetShards to another count detaches the block.
	n := NewNetwork(g, 3, WithShards(4), WithShardCounters(shared))
	n.SetShards(2)
	if _, err := n.Run((&stressProto{seeds: 4, hops: 30}).prepare(g.N())); err != nil {
		t.Fatal(err)
	}
	if agg := shared.Stats(); agg.Stepped[0] != 2*st.Stepped[0] {
		t.Fatalf("a detached network added to its old block: %+v", agg)
	}
}

// TestShardedErrorAborts pins the error path of the one kernel on all
// three transports: an invalid send — in Init, or in Step at a later
// round — aborts the run with the lowest erring node's error and the same
// partial Result everywhere, remote engines are told the run is over, and
// after Reseed the network serves its next run exactly like a fresh one.
func TestShardedErrorAborts(t *testing.T) {
	g, err := graph.Path(8)
	if err != nil {
		t.Fatal(err)
	}
	type build func(t *testing.T) (*Network, []*finishCounter)
	transports := []struct {
		name  string
		build build
	}{
		{"S=1", func(*testing.T) (*Network, []*finishCounter) { return NewNetwork(g, 1), nil }},
		{"S=2", func(*testing.T) (*Network, []*finishCounter) { return NewNetwork(g, 1, WithShards(2)), nil }},
		{"loopback2", func(t *testing.T) (*Network, []*finishCounter) {
			group, bounds, err := NewLoopbackGroup(g, 2, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			counters := make([]*finishCounter, len(group))
			for i, r := range group {
				counters[i] = &finishCounter{RemoteShard: r}
				group[i] = counters[i]
			}
			net := NewNetwork(g, 1)
			if err := net.ConnectRemote(group, bounds); err != nil {
				t.Fatal(err)
			}
			return net, counters
		}},
	}
	stress := func(net *Network) (Result, *stressProto) {
		p := (&stressProto{seeds: 2, hops: 9, awakeRounds: 4}).prepare(g.N())
		res, err := net.Run(p)
		if err != nil {
			t.Fatalf("run after aborted run: %v", err)
		}
		return res, p
	}
	for _, atRound := range []int{0, 2} {
		// Nodes 2 and 6 sit in different shards of the two-way plan and
		// both err in the same round; node 2's error must win everywhere.
		const want = "congest: node 2 sent to non-neighbor 7"
		var first *Result
		for _, tr := range transports {
			t.Run(fmt.Sprintf("round%d/%s", atRound, tr.name), func(t *testing.T) {
				net, counters := tr.build(t)
				net.SetMaxRounds(10) // the flood only ends by erring
				res, err := net.Run(&badSend{to: map[graph.NodeID]graph.NodeID{2: 7, 6: 1}, atRound: atRound})
				if err == nil || err.Error() != want {
					t.Fatalf("err = %v, want %q", err, want)
				}
				if res.Rounds != atRound {
					t.Fatalf("aborted at round %d, want %d", res.Rounds, atRound)
				}
				if first == nil {
					first = &res
				} else if res != *first {
					t.Fatalf("partial Result %+v differs from %s's %+v", res, transports[0].name, *first)
				}
				for i, c := range counters {
					if c.finished != 1 {
						t.Fatalf("engine %d saw %d FinishRun calls after the abort, want 1", i, c.finished)
					}
				}
				// The network stays usable, and bit-identical to a fresh one.
				net.Reseed(1)
				net.SetMaxRounds(DefaultMaxRounds)
				gotRes, got := stress(net)
				fresh, _ := tr.build(t)
				wantRes, wantP := stress(fresh)
				if gotRes != wantRes || !reflect.DeepEqual(got, wantP) {
					t.Fatalf("run after abort diverged from a fresh network: %+v vs %+v", gotRes, wantRes)
				}
			})
		}
	}
}

// finishCounter counts the FinishRun calls a remote engine receives.
type finishCounter struct {
	RemoteShard
	finished int
}

func (f *finishCounter) FinishRun() (RemoteResult, error) {
	f.finished++
	return f.RemoteShard.FinishRun()
}

// badSend has every node pass a token to each neighbor every round; at
// round atRound (0 = Init) the nodes keyed in to also send to the given
// non-neighbor.
type badSend struct {
	to      map[graph.NodeID]graph.NodeID
	atRound int
}

func (p *badSend) Init(ctx *Ctx) { p.Step(ctx) }

func (p *badSend) Step(ctx *Ctx) {
	for _, h := range ctx.Neighbors() {
		Send(ctx, h.To, intPayload(1))
	}
	if to, ok := p.to[ctx.Node()]; ok && ctx.Round() == p.atRound {
		Send(ctx, to, intPayload(1))
	}
}

func TestShardedHalter(t *testing.T) {
	// The halting round must match the sequential engine exactly.
	g, err := graph.Path(30)
	if err != nil {
		t.Fatal(err)
	}
	run := func(shards int) (Result, error) {
		net := NewNetwork(g, 5, WithShards(shards))
		p := &haltAt{target: 25}
		return net.Run(p)
	}
	seq, err := run(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 4} {
		got, err := run(shards)
		if err != nil {
			t.Fatal(err)
		}
		if got != seq {
			t.Fatalf("shards=%d: halter Result %+v != sequential %+v", shards, got, seq)
		}
	}
}

// haltAt relays a token down the path and halts when it reaches target.
type haltAt struct {
	target graph.NodeID
	done   bool
}

func (p *haltAt) Init(ctx *Ctx) {
	if ctx.Node() == 0 {
		Send(ctx, 1, intPayload(0))
	}
}

func (p *haltAt) Step(ctx *Ctx) {
	v := ctx.Node()
	if len(ctx.Inbox()) == 0 {
		return
	}
	if v == p.target {
		p.done = true
		return
	}
	if int(v)+1 < ctx.N() {
		Send(ctx, v+1, intPayload(int(v)))
	}
}

func (p *haltAt) Halted() bool { return p.done }

func TestShardedContextCancel(t *testing.T) {
	g, err := graph.Cycle(16)
	if err != nil {
		t.Fatal(err)
	}
	net := NewNetwork(g, 2, WithShards(2))
	ctx, cancel := context.WithCancel(context.Background())
	net.SetContext(ctx)
	cancel()
	if _, err := net.Run((&stressProto{seeds: 1, hops: 1000}).prepare(g.N())); err == nil {
		t.Fatal("sharded run with canceled context did not fail")
	}
	net.SetContext(nil)
	net.Reseed(2)
	if _, err := net.Run((&stressProto{seeds: 1, hops: 5}).prepare(g.N())); err != nil {
		t.Fatalf("run after canceled sharded run: %v", err)
	}
}

func ExampleNetwork_SetShards() {
	g, _ := graph.Torus(8, 8)
	seq := NewNetwork(g, 1)
	shd := NewNetwork(g, 1, WithShards(4))
	p1 := (&stressProto{seeds: 2, hops: 20}).prepare(g.N())
	p2 := (&stressProto{seeds: 2, hops: 20}).prepare(g.N())
	a, _ := seq.Run(p1)
	b, _ := shd.Run(p2)
	fmt.Println(a == b)
	// Output: true
}
