package congest

import (
	"fmt"

	"distwalk/internal/graph"
)

// Tree is a rooted BFS spanning tree, the standard CONGEST communication
// scaffold (used by SAMPLE-DESTINATION, cover checks, and upcasts). It is
// produced by the distributed flooding protocol in BuildBFSTree; the struct
// aggregates what each node knows locally (its parent, children and depth)
// for the convenience of driver code.
type Tree struct {
	Root     graph.NodeID
	Parent   []graph.NodeID
	Children [][]graph.NodeID
	Depth    []int32
	// Height is the maximum depth, i.e. the eccentricity of the root.
	Height int

	childSlab []graph.NodeID // backs Children; see carveChildren
}

// carveChildren empties every child list of a recycled tree and carves it
// anew from the tree's one child slab. A node acks at most deg(v)
// children, so Children[v] gets deg(v) slots and a rebuild from another
// root never grows a list. The slab is kept across rebuilds and grows only for a
// graph with more edges.
func (t *Tree) carveChildren(g *graph.G) {
	total := 0
	for v := range t.Children {
		total += g.Degree(graph.NodeID(v))
	}
	if cap(t.childSlab) < total {
		t.childSlab = make([]graph.NodeID, total)
	}
	off := 0
	for v := range t.Children {
		end := off + g.Degree(graph.NodeID(v))
		t.Children[v] = t.childSlab[off:off:end]
		off = end
	}
}

// Message kinds local to the BFS protocol run. An announce carries the
// receiver's depth in its one word; a child ack carries nothing.
const (
	kindAnnounce uint16 = 1
	kindChildAck uint16 = 2
)

type bfsProto struct {
	root     graph.NodeID
	sc       *nodeScratch // stamp[v] == epoch marks v visited
	parent   []graph.NodeID
	children [][]graph.NodeID
	depth    []int32
}

func (p *bfsProto) visited(v graph.NodeID) bool { return p.sc.stamp[v] == p.sc.epoch }
func (p *bfsProto) visit(v graph.NodeID)        { p.sc.stamp[v] = p.sc.epoch }

func (p *bfsProto) Init(ctx *Ctx) {
	v := ctx.Node()
	if v != p.root {
		return
	}
	p.visit(v)
	p.depth[v] = 0
	for port := range ctx.Neighbors() {
		ctx.SendPort(port, kindAnnounce, 1, 1, 0, 0, 0)
	}
}

func (p *bfsProto) Step(ctx *Ctx) {
	v := ctx.Node()
	for _, m := range ctx.Inbox() {
		switch m.Kind {
		case kindAnnounce:
			if p.visited(v) {
				continue
			}
			depth := int32(uint32(m.W[0]))
			p.visit(v)
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

// BuildBFSTree runs the flooding BFS-tree protocol from root and returns
// the resulting tree and the run cost (O(D) rounds, O(m) messages). It
// fails if the graph is disconnected.
func BuildBFSTree(net *Network, root graph.NodeID) (*Tree, Result, error) {
	return BuildBFSTreeReuse(net, root, nil)
}

// BuildBFSTreeReuse is BuildBFSTree recycling the slabs of a retired Tree
// of the same network (pass nil for a fresh build). The recycled Tree must
// no longer be referenced by its previous owner: its arrays are
// overwritten in place. A recycled Tree's child lists are carved from one
// slab by degree (a fresh build appends to them instead, so a one-off tree
// such as Params.PerCallBFS's pays no Σdeg slab), and the build borrows
// the network's epoch-stamped node scratch for the visited set, so a warm
// rebuild allocates nothing.
func BuildBFSTreeReuse(net *Network, root graph.NodeID, recycle *Tree) (*Tree, Result, error) {
	n := net.Graph().N()
	if root < 0 || int(root) >= n {
		return nil, Result{}, fmt.Errorf("congest: BFS root %d out of range [0,%d)", root, n)
	}
	t := recycle
	if t == nil || len(t.Parent) != n || len(t.Children) != n || len(t.Depth) != n {
		t = &Tree{
			Parent:   make([]graph.NodeID, n),
			Children: make([][]graph.NodeID, n),
			Depth:    make([]int32, n),
		}
	} else {
		t.carveChildren(net.Graph())
	}
	t.Root = root
	t.Height = 0
	p := &bfsProto{
		root:     root,
		sc:       net.scratch(),
		parent:   t.Parent,
		children: t.Children,
		depth:    t.Depth,
	}
	for i := range p.parent {
		p.parent[i] = graph.None
	}
	res, err := net.Run(p)
	if err != nil {
		return nil, res, err
	}
	for v := 0; v < n; v++ {
		if !p.visited(graph.NodeID(v)) {
			return nil, res, fmt.Errorf("congest: BFS from %d did not reach node %d (graph disconnected?)", root, v)
		}
		if int(p.depth[v]) > t.Height {
			t.Height = int(p.depth[v])
		}
	}
	return t, res, nil
}

// relay sends m's payload on to the neighbor to.
func (c *Ctx) relay(to graph.NodeID, m *Message) {
	c.SendTo(to, m.Kind, int(m.words), m.W[0], m.W[1], m.W[2], m.W[3])
}

// The tree primitives below move Messages: items are built with
// MakeMessage and read back from the *Message a callback is handed. A Run
// carries only its own protocol's messages, so none filters by kind.

type broadcastProto struct {
	t     *Tree
	items []Message
	visit func(graph.NodeID, *Message)
}

func (p *broadcastProto) Init(ctx *Ctx) {
	v := ctx.Node()
	if v != p.t.Root {
		return
	}
	for i := range p.items {
		p.forward(ctx, v, &p.items[i])
	}
}

func (p *broadcastProto) Step(ctx *Ctx) {
	v := ctx.Node()
	in := ctx.Inbox()
	for i := range in {
		p.forward(ctx, v, &in[i])
	}
}

func (p *broadcastProto) forward(ctx *Ctx, v graph.NodeID, m *Message) {
	if p.visit != nil {
		p.visit(v, m)
	}
	for _, c := range p.t.Children[v] {
		ctx.relay(c, m)
	}
}

// Broadcast floods items from the root to every node over tree edges,
// pipelined one message per edge per round: O(len(items) + Height)
// rounds. visit is called at every node, root included, for every item
// as it arrives; it may be nil. The items are copied into the network's
// scratch, so a caller's one-item slice literal stays on its stack, and
// the run's state lives there too: a Broadcast allocates nothing.
func Broadcast(net *Network, t *Tree, items []Message, visit func(graph.NodeID, *Message)) (Result, error) {
	net.ns.items = append(net.ns.items[:0], items...)
	p := &net.ns.bc
	*p = broadcastProto{t: t, items: net.ns.items, visit: visit}
	res, err := net.Run(p)
	*p = broadcastProto{} // let go of the caller's tree and callback
	return res, err
}

// convergecastProto keeps its per-node aggregates in the network's node
// scratch, and is itself kept there, so a convergecast allocates nothing
// per call; before the scratch, the two O(n) arrays here were the
// dominant per-stitch allocation of SAMPLE-DESTINATION.
type convergecastProto struct {
	t       *Tree
	initVal func(graph.NodeID) Message
	merge   func(v graph.NodeID, acc, child *Message)

	sc   *nodeScratch
	out  Message
	done bool
}

func (p *convergecastProto) Init(ctx *Ctx) {
	v := ctx.Node()
	p.sc.acc[v] = p.initVal(v)
	p.sc.pending[v] = int32(len(p.t.Children[v]))
	if p.sc.pending[v] == 0 {
		p.emit(ctx, v)
	}
}

func (p *convergecastProto) Step(ctx *Ctx) {
	v := ctx.Node()
	in := ctx.Inbox()
	for i := range in {
		p.merge(v, &p.sc.acc[v], &in[i])
		p.sc.pending[v]--
		if p.sc.pending[v] == 0 {
			p.emit(ctx, v)
		}
	}
}

func (p *convergecastProto) emit(ctx *Ctx, v graph.NodeID) {
	if v == p.t.Root {
		p.out = p.sc.acc[v]
		p.done = true
		return
	}
	ctx.relay(p.t.Parent[v], &p.sc.acc[v])
}

// Convergecast aggregates a message up the tree in Height rounds: each
// node starts with initVal(node) and folds in each child's aggregate with
// merge(node, acc, child), which updates *acc in place; the root's final
// aggregate is returned. merge must be associative-enough for the
// caller's purpose (children arrive in delivery order).
func Convergecast(
	net *Network,
	t *Tree,
	initVal func(graph.NodeID) Message,
	merge func(v graph.NodeID, acc, child *Message),
) (Message, Result, error) {
	sc := net.scratch()
	p := &sc.cc
	*p = convergecastProto{t: t, initVal: initVal, merge: merge, sc: sc}
	res, err := net.Run(p)
	out, done := p.out, p.done
	*p = convergecastProto{} // let go of the caller's tree and callbacks
	if err != nil {
		return Message{}, res, err
	}
	if !done {
		return Message{}, res, fmt.Errorf("congest: convergecast did not complete at root %d", t.Root)
	}
	return out, res, nil
}

type upcastProto struct {
	t         *Tree
	items     func(graph.NodeID) []Message
	collected []Message
}

func (p *upcastProto) Init(ctx *Ctx) {
	v := ctx.Node()
	items := p.items(v)
	for i := range items {
		p.forward(ctx, v, &items[i])
	}
}

func (p *upcastProto) Step(ctx *Ctx) {
	v := ctx.Node()
	in := ctx.Inbox()
	for i := range in {
		p.forward(ctx, v, &in[i])
	}
}

func (p *upcastProto) forward(ctx *Ctx, v graph.NodeID, m *Message) {
	if v == p.t.Root {
		p.collected = append(p.collected, *m)
		return
	}
	ctx.relay(p.t.Parent[v], m)
}

// Upcast streams every node's items to the root over tree edges, pipelined
// one message per edge per round (the standard upcast primitive; see
// Peleg's book). With a total of s items the run takes O(s + Height)
// rounds, which the engine's queueing measures naturally. Items arrive in
// a deterministic order.
func Upcast(net *Network, t *Tree, items func(graph.NodeID) []Message) ([]Message, Result, error) {
	p := &upcastProto{t: t, items: items}
	res, err := net.Run(p)
	if err != nil {
		return nil, res, err
	}
	return p.collected, res, nil
}
