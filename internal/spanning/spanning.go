// Package spanning implements the paper's first application (Section 4.1):
// a distributed algorithm that samples a uniformly random spanning tree
// (RST) in Õ(√(mD)) rounds by simulating the Aldous-Broder walk with the
// fast SINGLE-RANDOM-WALK machinery.
//
// The driver follows the paper exactly: starting from ℓ = n, each phase
// runs ⌈log₂ n⌉ walks of length ℓ from the root; one distributed cover
// check (O(D) rounds for all of the phase's walks) finds a walk that
// visited every node; if none covers, ℓ doubles. The covering walk is
// regenerated so every node knows its first-visit time and predecessor,
// and each non-root node outputs the edge of its first visit — the
// Aldous-Broder rule, whose output is a uniform spanning tree. Expected
// cover length is O(mD) (Aleliunas et al.), so the doubling stops at
// ℓ = O(mD) w.h.p. and the total cost is Õ(√(mD)) rounds (Theorem 4.1).
//
// The phases share one short-walk inventory. Doubling ℓ raises the
// MANY-RANDOM-WALKS λ by about √2, and the walker keeps its Phase 1
// inventory while the new λ is below twice the inventory's (see
// core.Walker): the next phase stitches the previous phase's unused walks
// with the inventory's λ, and Phase 1 only replaces the walks the
// previous phases used. A phase re-provisions when λ has doubled, about
// every other phase.
//
// Wilson's algorithm (wilson.go) provides a centralized exactly-uniform
// reference sampler, and Kirchhoff's matrix-tree theorem (count.go) the
// ground-truth tree counts, for the uniformity tests.
package spanning

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"strings"

	"distwalk/internal/congest"
	"distwalk/internal/core"
	"distwalk/internal/graph"
)

// ErrNoCover is wrapped by RandomSpanningTree when no walk up to MaxLength
// covered the graph — the doubling schedule ran out before the O(mD)
// expected cover time was reached, which indicates MaxLength was set far
// too low for the topology.
var ErrNoCover = errors.New("spanning: no covering walk within the length budget")

// Options tunes the RST driver. The zero value follows the paper.
type Options struct {
	// StartLength is the initial walk length ℓ (default n, as in the
	// paper). Raising it reduces the (vanishing) bias of conditioning on
	// covering within a fixed horizon.
	StartLength int
	// WalksPerPhase is the number of walks per doubling phase
	// (default ⌈log₂ n⌉).
	WalksPerPhase int
	// MaxLength caps ℓ (default 1024·m·2h, where h is the height of the
	// walker's BFS tree from the root, known to every node once the first
	// phase has built it: 2h ≥ D, so the cap is far above the O(mD)
	// expected cover time).
	MaxLength int
	// Deliver additionally upcasts the n-1 tree edges to the root
	// (O(n + D) extra rounds — the paper's optional "additional O(n)
	// rounds ... to deliver the resulting tree").
	Deliver bool
}

// Result is a sampled spanning tree plus its cost.
type Result struct {
	Root graph.NodeID
	// Parent[v] is v's tree parent — the node from which the covering walk
	// first reached v (None for the root). Each node knows its own entry.
	Parent []graph.NodeID
	// WalkLength is the ℓ of the covering walk.
	WalkLength int
	// Phases is the number of doubling phases used.
	Phases int
	// Attempts is the total number of walks run.
	Attempts int
	// Cost is the total simulated cost.
	Cost congest.Result
}

// Message kinds: the cover check's AND and the delivered tree edges.
const (
	kindCovered    uint16 = 1
	kindEdgeReport uint16 = 2
)

// coveredMsg is the cover check's running AND: bit i says "walk i
// visited every node below me".
func coveredMsg(mask uint64) congest.Message {
	return congest.MakeMessage(graph.None, graph.None, kindCovered, 1, [congest.PayloadWords]uint64{mask})
}

func readCovered(m *congest.Message) uint64 { return m.W[0] }

type edgeReport struct {
	child, parent graph.NodeID
}

func (r edgeReport) msg() congest.Message {
	return congest.MakeMessage(graph.None, graph.None, kindEdgeReport, 2,
		[congest.PayloadWords]uint64{congest.Pack2(int32(r.child), int32(r.parent))})
}

func readEdgeReport(m *congest.Message) edgeReport {
	child, parent := congest.Unpack2(m.W[0])
	return edgeReport{child: graph.NodeID(child), parent: graph.NodeID(parent)}
}

// RandomSpanningTree samples a uniform spanning tree of w's graph rooted
// at root.
func RandomSpanningTree(w *core.Walker, root graph.NodeID, opt Options) (*Result, error) {
	g := w.Graph()
	n := g.N()
	if root < 0 || int(root) >= n {
		return nil, fmt.Errorf("%w: root %d not in [0,%d)", core.ErrBadNode, root, n)
	}
	if n == 1 {
		return &Result{Root: root, Parent: []graph.NodeID{graph.None}}, nil
	}
	ell := opt.StartLength
	if ell <= 0 {
		ell = n
	}
	walksPerPhase := opt.WalksPerPhase
	if walksPerPhase <= 0 {
		walksPerPhase = int(math.Ceil(math.Log2(float64(n + 1))))
		if walksPerPhase < 1 {
			walksPerPhase = 1
		}
	}
	maxLen := opt.MaxLength // the default is set after the first phase
	if maxLen > 0 && ell > maxLen {
		maxLen = ell
	}

	out := &Result{Root: root, WalkLength: ell}
	sources := make([]graph.NodeID, walksPerPhase)
	for i := range sources {
		sources[i] = root
	}
	for ; maxLen <= 0 || ell <= maxLen; ell *= 2 {
		out.Phases++
		out.WalkLength = ell
		many, err := w.ManyRandomWalks(sources, ell)
		if err != nil {
			return nil, fmt.Errorf("spanning: phase ℓ=%d: %w", ell, err)
		}
		if maxLen <= 0 {
			maxLen = max(ell, 1024*g.M()*2*w.Tree().Height)
		}
		out.Cost.Add(many.Cost)
		out.Attempts += walksPerPhase
		// All candidate walks regenerate in one parallel replay pass
		// (Section 2.2's "takes time at most the time taken in Phase 1").
		traces, err := w.RegenerateMany(many.Walks)
		if err != nil {
			return nil, err
		}
		out.Cost.Add(traces[0].Cost)
		first, res, err := coverCheck(w, traces)
		out.Cost.Add(res)
		if err != nil {
			return nil, err
		}
		if first < 0 {
			continue
		}
		// Aldous-Broder rule: each non-root node outputs its first-visit
		// edge. FirstVisitFrom is node-local knowledge. It is copied:
		// the phase's traces share one slab, which a kept result (a
		// cached one, say) must not hold.
		out.Parent = slices.Clone(traces[first].FirstVisitFrom)
		if opt.Deliver {
			res, err := deliver(w, out)
			out.Cost.Add(res)
			if err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	return nil, fmt.Errorf("%w: tried up to ℓ=%d (max %d)", ErrNoCover, ell/2, maxLen)
}

// coverCheck is the distributed AND over "was I visited?" — one
// convergecast over the walker's BFS tree, O(D) rounds ("this can be
// easily checked in O(D) time", Section 4.1), for up to 64 walks at once:
// bit i of a node's word says walk i visited it, and the words are ANDed
// up the tree. It returns the lowest covering index, the walk a check of
// one walk after another would pick, or -1 if none covers. A phase of more
// than 64 walks checks them 64 at a time.
func coverCheck(w *core.Walker, traces []*core.Trace) (int, congest.Result, error) {
	var cost congest.Result
	tree := w.Tree()
	if tree == nil {
		return -1, cost, fmt.Errorf("spanning: walker has no BFS tree")
	}
	for base := 0; base < len(traces); base += 64 {
		batch := traces[base:min(base+64, len(traces))]
		all, res, err := congest.Convergecast(w.Network(), tree,
			func(v graph.NodeID) congest.Message {
				var mask uint64
				for i, tr := range batch {
					if tr.FirstVisitTime[v] >= 0 {
						mask |= 1 << i
					}
				}
				return coveredMsg(mask)
			},
			func(_ graph.NodeID, acc, child *congest.Message) {
				*acc = coveredMsg(readCovered(acc) & readCovered(child))
			},
		)
		cost.Add(res)
		if err != nil {
			return -1, cost, err
		}
		if mask := readCovered(&all); mask != 0 {
			return base + bits.TrailingZeros64(mask), cost, nil
		}
	}
	return -1, cost, nil
}

// deliver upcasts all tree edges to the root, pipelined: O(n + D) rounds.
func deliver(w *core.Walker, out *Result) (congest.Result, error) {
	tree := w.Tree()
	if tree == nil {
		return congest.Result{}, fmt.Errorf("spanning: walker has no BFS tree")
	}
	reports, cost, err := congest.Upcast(w.Network(), tree, func(v graph.NodeID) []congest.Message {
		if p := out.Parent[v]; p != graph.None {
			return []congest.Message{edgeReport{child: v, parent: p}.msg()}
		}
		return nil
	})
	if err != nil {
		return cost, err
	}
	if len(reports) != w.Graph().N()-1 {
		return cost, fmt.Errorf("spanning: delivered %d edges, want %d", len(reports), w.Graph().N()-1)
	}
	for i := range reports {
		if r := readEdgeReport(&reports[i]); out.Parent[r.child] != r.parent {
			return cost, fmt.Errorf("spanning: delivered edge (%d,%d) is not in the tree", r.child, r.parent)
		}
	}
	return cost, nil
}

// ValidateTree checks that parent encodes a spanning tree of g rooted at
// root: every non-root has a parent joined by a real edge, and following
// parents always reaches the root (no cycles).
func ValidateTree(g *graph.G, root graph.NodeID, parent []graph.NodeID) error {
	n := g.N()
	if len(parent) != n {
		return fmt.Errorf("spanning: parent array has %d entries, want %d", len(parent), n)
	}
	if parent[root] != graph.None {
		return fmt.Errorf("spanning: root %d has parent %d", root, parent[root])
	}
	state := make([]int8, n) // 0 unvisited, 1 in progress, 2 done
	state[root] = 2
	for v := 0; v < n; v++ {
		u := graph.NodeID(v)
		var path []graph.NodeID
		for state[u] == 0 {
			state[u] = 1
			path = append(path, u)
			p := parent[u]
			if p == graph.None {
				return fmt.Errorf("spanning: non-root %d has no parent", u)
			}
			if !g.HasEdge(u, p) {
				return fmt.Errorf("spanning: tree edge (%d,%d) not in graph", u, p)
			}
			u = p
		}
		if state[u] == 1 {
			return fmt.Errorf("spanning: cycle through node %d", u)
		}
		for _, x := range path {
			state[x] = 2
		}
	}
	return nil
}

// TreeKey returns a canonical identity for the tree encoded by parent,
// usable as a map key when counting tree frequencies.
func TreeKey(parent []graph.NodeID) string {
	edges := make([]string, 0, len(parent))
	for v, p := range parent {
		if p == graph.None {
			continue
		}
		a, b := graph.NodeID(v), p
		if a > b {
			a, b = b, a
		}
		edges = append(edges, strconv.Itoa(int(a))+"-"+strconv.Itoa(int(b)))
	}
	sort.Strings(edges)
	return strings.Join(edges, ",")
}
