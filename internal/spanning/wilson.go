package spanning

import (
	"fmt"

	"distwalk/internal/graph"
	"distwalk/internal/rng"
)

// Wilson samples a uniformly random spanning tree rooted at root with
// Wilson's loop-erased random walk algorithm (centralized). It is the
// exactly-uniform reference sampler against which the distributed
// Aldous-Broder driver is validated: both feed the same chi-square test
// (TestAldousBroderUniformOnK4, TestWilsonUniformOnK4).
func Wilson(g *graph.G, root graph.NodeID, r *rng.RNG) ([]graph.NodeID, error) {
	n := g.N()
	if root < 0 || int(root) >= n {
		return nil, fmt.Errorf("spanning: root %d out of range [0,%d)", root, n)
	}
	parent := make([]graph.NodeID, n)
	inTree := make([]bool, n)
	for v := range parent {
		parent[v] = graph.None
	}
	inTree[root] = true

	next := make([]graph.NodeID, n)
	for v := 0; v < n; v++ {
		if inTree[v] {
			continue
		}
		// Random walk from v until the tree is hit, remembering only the
		// latest exit from each node (implicit loop erasure).
		u := graph.NodeID(v)
		for !inTree[u] {
			step, err := g.Step(r, u)
			if err != nil {
				return nil, fmt.Errorf("spanning: wilson walk stuck at %d: %w", u, err)
			}
			next[u] = step
			u = step
		}
		// Attach the loop-erased path.
		u = graph.NodeID(v)
		for !inTree[u] {
			inTree[u] = true
			parent[u] = next[u]
			u = next[u]
		}
	}
	return parent, nil
}
