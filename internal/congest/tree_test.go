package congest

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"distwalk/internal/fault"
	"distwalk/internal/graph"
	"distwalk/internal/rng"
)

func buildTree(t *testing.T, g *graph.G, root graph.NodeID) (*Network, *Tree, Result) {
	t.Helper()
	net := NewNetwork(g, 42)
	tree, res, err := BuildBFSTree(net, root)
	if err != nil {
		t.Fatal(err)
	}
	return net, tree, res
}

func TestBFSTreeOnPath(t *testing.T) {
	g, err := graph.Path(6)
	if err != nil {
		t.Fatal(err)
	}
	_, tree, res := buildTree(t, g, 0)
	if tree.Height != 5 {
		t.Fatalf("height=%d, want 5", tree.Height)
	}
	for v := 1; v < 6; v++ {
		if tree.Parent[v] != graph.NodeID(v-1) || tree.Depth[v] != int32(v) {
			t.Fatalf("node %d: parent=%d depth=%d", v, tree.Parent[v], tree.Depth[v])
		}
	}
	if tree.Parent[0] != graph.None || tree.Depth[0] != 0 {
		t.Fatal("root bookkeeping wrong")
	}
	// Flooding a path takes height rounds (plus ack wash-up).
	if res.Rounds < 5 || res.Rounds > 8 {
		t.Fatalf("BFS rounds=%d, want ~5", res.Rounds)
	}
}

func TestBFSTreeDepthsMatchGraphBFS(t *testing.T) {
	g, err := graph.ConnectedER(40, 0.12, rng.New(5), 200)
	if err != nil {
		t.Fatal(err)
	}
	_, tree, _ := buildTree(t, g, 7)
	ref, err := g.BFS(7)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		if tree.Depth[v] != ref.Dist[v] {
			t.Fatalf("node %d: protocol depth %d != BFS dist %d", v, tree.Depth[v], ref.Dist[v])
		}
		p := tree.Parent[v]
		if v == 7 {
			continue
		}
		if p == graph.None || !g.HasEdge(graph.NodeID(v), p) {
			t.Fatalf("node %d has invalid parent %d", v, p)
		}
	}
}

func TestBFSTreeChildrenConsistent(t *testing.T) {
	g, err := graph.Torus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	_, tree, _ := buildTree(t, g, 3)
	// children lists must mirror parent pointers exactly.
	count := 0
	for v := 0; v < g.N(); v++ {
		for _, c := range tree.Children[v] {
			if tree.Parent[c] != graph.NodeID(v) {
				t.Fatalf("child %d of %d has parent %d", c, v, tree.Parent[c])
			}
			count++
		}
	}
	if count != g.N()-1 {
		t.Fatalf("tree has %d child links, want %d", count, g.N()-1)
	}
}

// TestBFSTreeReuseMatchesFresh: a tree rebuilt from every root over the
// slabs of the previous one equals a fresh build, and its child lists stay
// carved from one degree-indexed slab, so rebuilds never grow a list. A
// fresh build carves nothing: a one-off tree pays no Σdeg slab.
func TestBFSTreeReuseMatchesFresh(t *testing.T) {
	g, err := graph.ConnectedER(40, 0.12, rng.New(5), 200)
	if err != nil {
		t.Fatal(err)
	}
	net := NewNetwork(g, 42)
	var tree *Tree
	rebuild := func(root graph.NodeID) {
		tree, _, err = BuildBFSTreeReuse(net, root, tree)
		if err != nil {
			t.Fatal(err)
		}
	}
	rebuild(0)
	if tree.childSlab != nil {
		t.Fatal("a fresh build carved a child slab")
	}
	rebuild(0)
	slab := &tree.childSlab[0]
	for root := graph.NodeID(0); int(root) < g.N(); root++ {
		rebuild(root)
		_, want, _ := buildTree(t, g, root)
		if tree.Root != want.Root || tree.Height != want.Height ||
			!slices.Equal(tree.Parent, want.Parent) || !slices.Equal(tree.Depth, want.Depth) {
			t.Fatalf("root %d: recycled tree differs from a fresh build", root)
		}
		for v := range want.Children {
			if !slices.Equal(tree.Children[v], want.Children[v]) {
				t.Fatalf("root %d: Children[%d] = %v, fresh build %v", root, v, tree.Children[v], want.Children[v])
			}
			if cap(tree.Children[v]) != g.Degree(graph.NodeID(v)) {
				t.Fatalf("root %d: Children[%d] has capacity %d, want its degree %d", root, v, cap(tree.Children[v]), g.Degree(graph.NodeID(v)))
			}
		}
	}
	if &tree.childSlab[0] != slab {
		t.Fatal("a rebuild replaced the child slab")
	}
	if allocs := testing.AllocsPerRun(10, func() { rebuild(7) }); allocs > 0 {
		t.Fatalf("a recycled rebuild allocated %.0f times, want none", allocs)
	}
}

func TestBFSTreeDisconnectedFails(t *testing.T) {
	g := graph.New(3)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	net := NewNetwork(g, 1)
	if _, _, err := BuildBFSTree(net, 0); err == nil {
		t.Fatal("disconnected graph accepted")
	}
}

func TestBFSTreeBadRoot(t *testing.T) {
	g, _ := graph.Path(3)
	net := NewNetwork(g, 1)
	if _, _, err := BuildBFSTree(net, 9); err == nil {
		t.Fatal("out-of-range root accepted")
	}
}

func TestBroadcastReachesAll(t *testing.T) {
	g, err := graph.Torus(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	net, tree, _ := buildTree(t, g, 0)
	var visited []graph.NodeID
	res, err := Broadcast(net, tree, []Message{intPayload(7).msg()}, func(v graph.NodeID, m *Message) {
		if p := readInt(m); p != 7 {
			t.Errorf("node %d received %d", v, p)
		}
		visited = append(visited, v)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(visited) != g.N() {
		t.Fatalf("visited %d of %d nodes", len(visited), g.N())
	}
	if res.Rounds != tree.Height {
		t.Fatalf("broadcast rounds=%d, want height=%d", res.Rounds, tree.Height)
	}
}

func TestConvergecastSums(t *testing.T) {
	g, err := graph.Grid(4, 6)
	if err != nil {
		t.Fatal(err)
	}
	net, tree, _ := buildTree(t, g, 0)
	total, res, err := Convergecast(net, tree,
		func(v graph.NodeID) Message { return intPayload(int(v)).msg() },
		sumInts,
	)
	if err != nil {
		t.Fatal(err)
	}
	want := g.N() * (g.N() - 1) / 2
	if int(readInt(&total)) != want {
		t.Fatalf("convergecast sum=%d, want %d", total, want)
	}
	if res.Rounds != tree.Height {
		t.Fatalf("convergecast rounds=%d, want height=%d", res.Rounds, tree.Height)
	}
}

func TestConvergecastSingleton(t *testing.T) {
	g, err := graph.Path(1)
	if err != nil {
		t.Fatal(err)
	}
	net := NewNetwork(g, 1)
	tree, _, err := BuildBFSTree(net, 0)
	if err != nil {
		t.Fatal(err)
	}
	total, res, err := Convergecast(net, tree,
		func(graph.NodeID) Message { return intPayload(5).msg() },
		sumInts,
	)
	if err != nil {
		t.Fatal(err)
	}
	if readInt(&total) != 5 || res.Rounds != 0 {
		t.Fatalf("singleton convergecast total=%d rounds=%d", total, res.Rounds)
	}
}

func TestUpcastCollectsEverything(t *testing.T) {
	g, err := graph.BinaryTree(15)
	if err != nil {
		t.Fatal(err)
	}
	net, tree, _ := buildTree(t, g, 0)
	items, _, err := Upcast(net, tree, func(v graph.NodeID) []Message {
		return intMsgs(intPayload(v))
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != g.N() {
		t.Fatalf("collected %d items, want %d", len(items), g.N())
	}
	got := make([]int, len(items))
	for i := range items {
		got[i] = int(readInt(&items[i]))
	}
	sort.Ints(got)
	for i, v := range got {
		if v != i {
			t.Fatalf("missing item %d (got %v)", i, got)
		}
	}
}

func TestUpcastPipelines(t *testing.T) {
	// s items from the far end of a path of depth d should take about
	// s + d - 1 rounds, not s*d.
	g, err := graph.Path(10)
	if err != nil {
		t.Fatal(err)
	}
	net, tree, _ := buildTree(t, g, 0)
	const s = 20
	items, res, err := Upcast(net, tree, func(v graph.NodeID) []Message {
		if v == 9 {
			out := make([]Message, s)
			for i := range out {
				out[i] = intPayload(i).msg()
			}
			return out
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != s {
		t.Fatalf("collected %d items, want %d", len(items), s)
	}
	want := s + 9 - 1
	if res.Rounds != want {
		t.Fatalf("upcast rounds=%d, want %d (pipelined)", res.Rounds, want)
	}
}

func TestUpcastNoItems(t *testing.T) {
	g, _ := graph.Path(4)
	net, tree, _ := buildTree(t, g, 0)
	items, res, err := Upcast(net, tree, func(graph.NodeID) []Message { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 0 || res.Rounds != 0 {
		t.Fatalf("empty upcast items=%d rounds=%d", len(items), res.Rounds)
	}
}

// TestTreePrimitivesCarryMessagesExactly: an item's kind, size and all
// four words reach every node through Broadcast, the root through Upcast,
// and the root's aggregate through Convergecast — relayed hop by hop and
// parked in the node scratch — unchanged.
func TestTreePrimitivesCarryMessagesExactly(t *testing.T) {
	g, err := graph.Torus(4, 5)
	if err != nil {
		t.Fatal(err)
	}
	net, tree, _ := buildTree(t, g, 3)
	item := MakeMessage(0, 0, 9, 4, [PayloadWords]uint64{math.MaxUint64, 0, 1 << 63, 12345})
	check := func(where string, m *Message) {
		t.Helper()
		if m.Kind != item.Kind || m.Words() != item.Words() || m.W != item.W {
			t.Fatalf("%s: kind %d, %d words, %v; want kind %d, %d words, %v",
				where, m.Kind, m.Words(), m.W, item.Kind, item.Words(), item.W)
		}
	}
	seen := 0
	if _, err := Broadcast(net, tree, []Message{item}, func(_ graph.NodeID, m *Message) {
		check("Broadcast", m)
		seen++
	}); err != nil {
		t.Fatal(err)
	}
	if seen != g.N() {
		t.Fatalf("Broadcast visited %d of %d nodes", seen, g.N())
	}
	items, _, err := Upcast(net, tree, func(graph.NodeID) []Message { return []Message{item} })
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != g.N() {
		t.Fatalf("Upcast collected %d of %d items", len(items), g.N())
	}
	for i := range items {
		check("Upcast", &items[i])
	}
	got, _, err := Convergecast(net, tree,
		func(graph.NodeID) Message { return item },
		func(_ graph.NodeID, acc, child *Message) { check("Convergecast child", child) },
	)
	if err != nil {
		t.Fatal(err)
	}
	check("Convergecast", &got)
}

// fullFloodProto is the BFS flood before announces were pruned: a node
// visited by an announce acks its parent and announces on every port but
// the parent's, also to neighbors that announced to it in the same round.
// It is the reference TestBFSPrunedFloodMatchesFullFlood holds the
// pruned rule to.
type fullFloodProto struct {
	root     graph.NodeID
	visited  []bool
	parent   []graph.NodeID
	children [][]graph.NodeID
	depth    []int32
}

func (p *fullFloodProto) Init(ctx *Ctx) {
	v := ctx.Node()
	if v != p.root {
		return
	}
	p.visited[v] = true
	for port := range ctx.Neighbors() {
		ctx.SendPort(port, kindAnnounce, 1, 1, 0, 0, 0)
	}
}

func (p *fullFloodProto) Step(ctx *Ctx) {
	v := ctx.Node()
	for _, m := range ctx.Inbox() {
		switch m.Kind {
		case kindAnnounce:
			if p.visited[v] {
				continue
			}
			depth := int32(uint32(m.W[0]))
			p.visited[v] = true
			p.parent[v] = m.From
			p.depth[v] = depth
			ctx.SendTo(m.From, kindChildAck, 1, 0, 0, 0, 0)
			for port, h := range ctx.Neighbors() {
				if h.To != m.From {
					ctx.SendPort(port, kindAnnounce, 1, uint64(uint32(depth+1)), 0, 0, 0)
				}
			}
		case kindChildAck:
			p.children[v] = append(p.children[v], m.From)
		}
	}
}

// fullFlood runs fullFloodProto from root and returns its tree, or
// BuildBFSTree's error for the first node the flood left unvisited.
func fullFlood(net *Network, root graph.NodeID) (*Tree, Result, error) {
	n := net.Graph().N()
	p := &fullFloodProto{
		root:     root,
		visited:  make([]bool, n),
		parent:   make([]graph.NodeID, n),
		children: make([][]graph.NodeID, n),
		depth:    make([]int32, n),
	}
	for v := range p.parent {
		p.parent[v] = graph.None
	}
	res, err := net.Run(p)
	if err != nil {
		return nil, res, err
	}
	if v := slices.Index(p.visited, false); v >= 0 {
		return nil, res, fmt.Errorf("congest: BFS from %d did not reach node %d (graph disconnected?)", root, v)
	}
	t := &Tree{Root: root, Parent: p.parent, Children: p.children, Depth: p.depth}
	for _, d := range p.depth {
		t.Height = max(t.Height, int(d))
	}
	return t, res, nil
}

// sameTree reports whether two trees agree in root, parents, depths,
// height and the order of every child list.
func sameTree(a, b *Tree) bool {
	if a.Root != b.Root || a.Height != b.Height || !slices.Equal(a.Parent, b.Parent) || !slices.Equal(a.Depth, b.Depth) {
		return false
	}
	for v := range a.Children {
		if !slices.Equal(a.Children[v], b.Children[v]) {
			return false
		}
	}
	return true
}

// floodGraphs are the graphs the pruned flood is checked on: bipartite
// and not, simple and with parallel edges.
func floodGraphs(t *testing.T) map[string]*graph.G {
	t.Helper()
	must := func(g *graph.G, err error) *graph.G {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	// A 6-cycle with two doubled edges and a triangle with a doubled
	// edge hung off it: bipartite and not, each with parallel edges.
	multiEven := graph.New(6)
	multiOdd := graph.New(5)
	for _, e := range [][2]graph.NodeID{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {0, 1}, {2, 3}} {
		if err := multiEven.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range [][2]graph.NodeID{{0, 1}, {1, 2}, {2, 0}, {1, 2}, {2, 3}, {3, 4}, {3, 4}} {
		if err := multiOdd.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return map[string]*graph.G{
		"torus8x8":     must(graph.Torus(8, 8)),
		"torus16x16":   must(graph.Torus(16, 16)),
		"hypercube6":   must(graph.Hypercube(6)),
		"path9":        must(graph.Path(9)),
		"regular256x4": must(graph.ConnectedRandomRegular(256, 4, rng.New(9), 100)),
		"er40":         must(graph.ConnectedER(40, 0.12, rng.New(5), 200)),
		"barbell6x3":   must(graph.Barbell(6, 3)),
		"candy7x4":     must(graph.Candy(7, 4)),
		"multiEven":    multiEven,
		"multiOdd":     multiOdd,
	}
}

// floodPlans are the fault plans the pruned flood is checked under: none,
// lossy links, link delays and churn windows, several seeds each.
func floodPlans(g *graph.G) map[string]*fault.Plan {
	plans := map[string]*fault.Plan{"fault-free": nil}
	n := g.N()
	for s := uint64(1); s <= 4; s++ {
		r := rng.New(s)
		plans[fmt.Sprintf("lossy/%d", s)] = &fault.Plan{Seed: s, DropProb: 0.01 * float64(s)}
		delays := &fault.Plan{Seed: s}
		for u := 0; u < n; u++ {
			for _, h := range g.Neighbors(graph.NodeID(u)) {
				if r.Intn(3) == 0 {
					delays.LinkDelays = append(delays.LinkDelays, fault.LinkDelay{From: graph.NodeID(u), To: h.To, Rounds: 1 + r.Intn(3)})
				}
			}
		}
		plans[fmt.Sprintf("delay/%d", s)] = delays
		churn := &fault.Plan{Seed: s}
		for i := 0; i < 1+n/16; i++ {
			from := 1 + r.Intn(6)
			churn.Churn = append(churn.Churn, fault.Churn{Node: graph.NodeID(r.Intn(n)), From: from, To: from + 1 + r.Intn(3)})
		}
		plans[fmt.Sprintf("churn/%d", s)] = churn
	}
	return plans
}

// layerEdges counts the edges whose ends share a BFS depth from root
// (zero on a bipartite graph).
func layerEdges(t *testing.T, g *graph.G, root graph.NodeID) int64 {
	t.Helper()
	ref, err := g.BFS(root)
	if err != nil {
		t.Fatal(err)
	}
	var c int64
	for u := 0; u < g.N(); u++ {
		for _, h := range g.Neighbors(graph.NodeID(u)) {
			if graph.NodeID(u) < h.To && ref.Dist[u] == ref.Dist[h.To] {
				c++
			}
		}
	}
	return c
}

// TestBFSPrunedFloodMatchesFullFlood: the flood that skips announcing
// back to the neighbors a node heard from builds the full flood's tree,
// child order included, in the same rounds with the same deepest queue,
// and sends no more messages, on every graph, root, shard count and a
// loopback cluster, fault-free and under each fault plan. Under link
// delays it may end in fewer rounds, never more. A plan that
// leaves the full flood short leaves the pruned one short too, with the
// same error. Fault-free it sends exactly m + n − 1 plus one per edge
// within a BFS layer: m + n − 1 on a bipartite graph.
func TestBFSPrunedFloodMatchesFullFlood(t *testing.T) {
	type mode struct {
		name   string
		shards int
		remote bool
	}
	modes := []mode{{"S=1", 1, false}, {"S=2", 2, false}, {"S=4", 4, false}, {"loopback2", 2, true}}
	bipartite := map[string]bool{"torus8x8": true, "torus16x16": true, "hypercube6": true, "path9": true, "multiEven": true}
	for name, g := range floodGraphs(t) {
		n := g.N()
		roots := []graph.NodeID{0, graph.NodeID(n / 2), graph.NodeID(n - 1)}
		plans := floodPlans(g)
		completed, shorter := map[string]int{}, 0
		for planName, plan := range plans {
			kind, _, _ := strings.Cut(planName, "/")
			for _, md := range modes {
				newNet := func() *Network {
					net := NewNetwork(g, 42, WithShards(md.shards), WithFaultPlan(plan))
					if md.remote {
						group, bounds, err := NewLoopbackGroup(g, md.shards, 1, plan)
						if err != nil {
							t.Fatal(err)
						}
						if err := net.ConnectRemote(group, bounds); err != nil {
							t.Fatal(err)
						}
					}
					return net
				}
				for _, root := range roots {
					at := fmt.Sprintf("%s/%s/%s/root%d", name, planName, md.name, root)
					want, wantRes, wantErr := fullFlood(newNet(), root)
					got, gotRes, gotErr := BuildBFSTree(newNet(), root)
					if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
						t.Fatalf("%s: pruned flood error %v; full flood %v", at, gotErr, wantErr)
					}
					if wantErr != nil {
						continue
					}
					completed[kind]++
					if !sameTree(got, want) {
						t.Fatalf("%s: pruned flood built a different tree", at)
					}
					// A pruned announce on a delayed link may have been the
					// full flood's last delivery: there the pruned flood
					// ends no later. Without delays every announce it drops
					// left in the round of its sender's ack.
					delayed := plan != nil && len(plan.LinkDelays) > 0
					if gotRes.MaxQueue != wantRes.MaxQueue || gotRes.Rounds > wantRes.Rounds ||
						!delayed && gotRes.Rounds != wantRes.Rounds {
						t.Fatalf("%s: rounds %d, max queue %d; full flood %d, %d",
							at, gotRes.Rounds, gotRes.MaxQueue, wantRes.Rounds, wantRes.MaxQueue)
					}
					if gotRes.Rounds < wantRes.Rounds {
						shorter++
					}
					if gotRes.Messages > wantRes.Messages || gotRes.Words > wantRes.Words ||
						gotRes.Faults.Dropped > wantRes.Faults.Dropped || gotRes.Faults.LinkDropped > wantRes.Faults.LinkDropped {
						t.Fatalf("%s: %d messages, %d words, faults %+v; full flood %d, %d, %+v",
							at, gotRes.Messages, gotRes.Words, gotRes.Faults, wantRes.Messages, wantRes.Words, wantRes.Faults)
					}
					if plan == nil {
						exact := int64(g.M()+n-1) + layerEdges(t, g, root)
						if gotRes.Messages != exact || gotRes.Words != exact ||
							bipartite[name] && exact != int64(g.M()+n-1) {
							t.Fatalf("%s: %d messages, %d words; want m + n − 1 + layer edges = %d",
								at, gotRes.Messages, gotRes.Words, exact)
						}
					}
				}
			}
		}
		for _, kind := range []string{"fault-free", "lossy", "delay", "churn"} {
			if completed[kind] == 0 {
				t.Errorf("%s: no %s flood completed", name, kind)
			}
		}
		t.Logf("%s: completed %v; %d delayed floods ended earlier pruned", name, completed, shorter)
	}
}
