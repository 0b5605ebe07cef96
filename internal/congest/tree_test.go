package congest

import (
	"math"
	"slices"
	"sort"
	"testing"

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
	if allocs := testing.AllocsPerRun(10, func() { rebuild(7) }); allocs > 1 {
		t.Fatalf("a recycled rebuild allocated %.0f times, want at most the protocol value", allocs)
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
