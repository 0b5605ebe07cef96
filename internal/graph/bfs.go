package graph

// BFSResult holds the output of a breadth-first search.
type BFSResult struct {
	Source NodeID
	// Dist[v] is the hop distance from Source, or -1 if unreachable.
	Dist []int32
	// Parent[v] is v's predecessor on a shortest path from Source
	// (None for the source and unreachable nodes).
	Parent []NodeID
	// Order lists reachable nodes in non-decreasing distance.
	Order []NodeID
}

// BFS runs a breadth-first search from src.
func (g *G) BFS(src NodeID) (*BFSResult, error) {
	if g.N() == 0 {
		return nil, errEmpty
	}
	if !g.valid(src) {
		return nil, errOutOfRange(src, g.N())
	}
	res := &BFSResult{
		Source: src,
		Dist:   make([]int32, g.N()),
		Parent: make([]NodeID, g.N()),
		Order:  make([]NodeID, 0, g.N()),
	}
	for i := range res.Dist {
		res.Dist[i] = -1
		res.Parent[i] = None
	}
	res.Dist[src] = 0
	queue := []NodeID{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		res.Order = append(res.Order, v)
		for _, h := range g.adj[v] {
			if res.Dist[h.To] < 0 {
				res.Dist[h.To] = res.Dist[v] + 1
				res.Parent[h.To] = v
				queue = append(queue, h.To)
			}
		}
	}
	return res, nil
}

// Eccentricity returns the maximum distance from the reachable nodes in
// r, i.e. the depth of the BFS tree.
func (r *BFSResult) Eccentricity() int {
	ecc := int32(0)
	for _, d := range r.Dist {
		if d > ecc {
			ecc = d
		}
	}
	return int(ecc)
}

// PathTo reconstructs the shortest path from the BFS source to v, inclusive
// of both endpoints. It returns nil if v is unreachable.
func (r *BFSResult) PathTo(v NodeID) []NodeID {
	if int(v) >= len(r.Dist) || v < 0 || r.Dist[v] < 0 {
		return nil
	}
	path := make([]NodeID, 0, r.Dist[v]+1)
	for u := v; u != None; u = r.Parent[u] {
		path = append(path, u)
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}

// Connected reports whether the graph is connected. Empty graphs are
// considered disconnected; single-vertex graphs connected.
func (g *G) Connected() bool {
	if g.N() == 0 {
		return false
	}
	res, err := g.BFS(0)
	if err != nil {
		return false
	}
	return len(res.Order) == g.N()
}

// Diameter computes the exact diameter by all-pairs BFS. It is O(n·m) and
// intended for small and medium graphs. It returns an error if the graph
// is empty or disconnected.
func (g *G) Diameter() (int, error) {
	if g.N() == 0 {
		return 0, errEmpty
	}
	diam := 0
	for v := 0; v < g.N(); v++ {
		res, err := g.BFS(NodeID(v))
		if err != nil {
			return 0, err
		}
		if len(res.Order) != g.N() {
			return 0, errDisconnected
		}
		if e := res.Eccentricity(); e > diam {
			diam = e
		}
	}
	return diam, nil
}
