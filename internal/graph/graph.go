// Package graph implements the undirected (optionally weighted) multigraphs
// on which the distributed random-walk algorithms run.
//
// The representation is an adjacency list of half-edges. Parallel edges are
// allowed (the CONGEST model of the paper treats weighted graphs as
// unweighted multigraphs, cf. Section 3.2), self-loops are not: the simple
// random walk of the paper moves to a uniformly random neighbor, and every
// graph family used in the evaluation is loop-free.
//
// All randomized operations take an explicit *rng.RNG so that simulations
// are reproducible from a single seed.
package graph

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"distwalk/internal/rng"
)

// NodeID identifies a vertex. Vertices of a graph with n nodes are numbered
// 0..n-1, matching the paper's convention of distinct identities {1..n} up
// to an offset.
type NodeID int32

// None is the sentinel "no node" value (absent parent, unvisited, ...).
const None NodeID = -1

// Half is a half-edge: one endpoint's view of an undirected edge.
type Half struct {
	To NodeID
	W  float64
	E  int32 // index into the graph's edge list
}

// Edge is an undirected edge with endpoints U < V unless added otherwise.
type Edge struct {
	U, V NodeID
	W    float64
}

// G is an undirected multigraph. The zero value is unusable; construct with
// New.
type G struct {
	adj      [][]Half
	edges    []Edge
	wdeg     []float64
	weighted bool // true if any edge weight differs from 1
}

// New returns an empty graph on n vertices (0..n-1).
func New(n int) *G {
	if n < 0 {
		n = 0
	}
	return &G{
		adj:  make([][]Half, n),
		wdeg: make([]float64, n),
	}
}

// N returns the number of vertices.
func (g *G) N() int { return len(g.adj) }

// M returns the number of undirected edges (parallel edges counted
// separately).
func (g *G) M() int { return len(g.edges) }

// AddEdge adds an unweighted (weight-1) undirected edge between u and v.
func (g *G) AddEdge(u, v NodeID) error { return g.AddWeightedEdge(u, v, 1) }

// AddWeightedEdge adds an undirected edge between u and v with a finite
// weight w > 0.
// Self-loops are rejected: the paper's simple random walk has no
// stay-in-place move.
func (g *G) AddWeightedEdge(u, v NodeID, w float64) error {
	switch {
	case u == v:
		return fmt.Errorf("graph: self-loop at node %d", u)
	case !g.valid(u) || !g.valid(v):
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, g.N())
	case !validWeight(w):
		return fmt.Errorf("graph: edge (%d,%d) has weight %v, want finite and positive", u, v, w)
	}
	e := int32(len(g.edges))
	g.edges = append(g.edges, Edge{U: u, V: v, W: w})
	g.adj[u] = append(g.adj[u], Half{To: v, W: w, E: e})
	g.adj[v] = append(g.adj[v], Half{To: u, W: w, E: e})
	g.wdeg[u] += w
	g.wdeg[v] += w
	if w != 1 {
		g.weighted = true
	}
	return nil
}

// validWeight reports whether w is a usable edge weight: finite and
// positive. NaN fails both comparisons, so it poisons no weighted degree.
func validWeight(w float64) bool { return w > 0 && w <= math.MaxFloat64 }

// Weighted reports whether any edge has weight != 1.
func (g *G) Weighted() bool { return g.weighted }

// Degree returns the number of half-edges at v (parallel edges counted).
func (g *G) Degree(v NodeID) int { return len(g.adj[v]) }

// WeightedDegree returns the total weight of edges incident to v.
func (g *G) WeightedDegree(v NodeID) float64 { return g.wdeg[v] }

// Neighbors returns v's half-edges. The returned slice is owned by the
// graph; callers must not modify it.
func (g *G) Neighbors(v NodeID) []Half { return g.adj[v] }

// Edge returns the i-th edge.
func (g *G) Edge(i int) Edge { return g.edges[i] }

// Edges returns a copy of the edge list.
func (g *G) Edges() []Edge {
	out := make([]Edge, len(g.edges))
	copy(out, g.edges)
	return out
}

// HasEdge reports whether at least one edge joins u and v.
func (g *G) HasEdge(u, v NodeID) bool {
	if !g.valid(u) || !g.valid(v) {
		return false
	}
	// Scan the smaller adjacency list.
	a, b := u, v
	if len(g.adj[a]) > len(g.adj[b]) {
		a, b = b, a
	}
	for _, h := range g.adj[a] {
		if h.To == b {
			return true
		}
	}
	return false
}

// Step performs one step of the simple random walk from v: an incident edge
// is chosen with probability proportional to its weight (uniformly for
// unweighted graphs) and the opposite endpoint is returned. It returns an
// error if v has no neighbors.
func (g *G) Step(r *rng.RNG, v NodeID) (NodeID, error) {
	port, err := g.StepPort(r, v)
	if err != nil {
		return None, err
	}
	return g.adj[v][port].To, nil
}

// acceptRatio is W(v)/W(u) for the proposal to leave v by port to u: the
// Metropolis-Hastings walk accepts it with probability min(1, ratio).
func (g *G) acceptRatio(v NodeID, port int) float64 {
	return g.wdeg[v] / g.wdeg[g.adj[v][port].To]
}

// StepPort is Step but returns the chosen port, the index into
// Neighbors(v) of the half-edge the walk leaves by: what a moving token
// hands the engine (congest.Ctx.SendPort) so it need not find the edge.
func (g *G) StepPort(r *rng.RNG, v NodeID) (int, error) {
	hs := g.adj[v]
	if len(hs) == 0 {
		return -1, fmt.Errorf("graph: node %d is isolated", v)
	}
	if !g.weighted {
		return r.Intn(len(hs)), nil
	}
	return g.weightedPort(v, r.Float64()), nil
}

// weightedPort returns the port whose edge covers u·W(v) in v's cumulative
// edge weights, for u uniform in [0, 1): a weight-proportional choice.
func (g *G) weightedPort(v NodeID, u float64) int {
	hs := g.adj[v]
	target := u * g.wdeg[v]
	acc := 0.0
	for j, h := range hs {
		acc += h.W
		if target < acc {
			return j
		}
	}
	return len(hs) - 1 // numerical edge case: target == wdeg
}

// PortAt is StepPort drawn from x, one uniform 64-bit value, instead of
// from a stream, so that the same x picks the same port wherever and
// whenever it is computed: the counter-keyed draw of a walk's hops. The
// unweighted choice is Lemire's multiply-shift without rejection (its
// bias is below deg(v)/2⁶⁴), the weighted one the top 53 bits of x as
// StepPort's uniform. It returns -1 at an isolated node.
func (g *G) PortAt(v NodeID, x uint64) int {
	hs := g.adj[v]
	if len(hs) == 0 {
		return -1
	}
	if !g.weighted {
		hi, _ := bits.Mul64(x, uint64(len(hs)))
		return int(hi)
	}
	return g.weightedPort(v, unitFloat(x))
}

// MHPortAt is one step of the Metropolis-Hastings walk with uniform
// target distribution, drawn from x: propose the port PortAt(v, x) to u,
// accept it with probability min(1, W(v)/W(u)) where W is the weighted
// degree (the acceptance draws from rng.Mix64(x)), otherwise stay at v.
// The chain's stationary distribution is uniform over nodes regardless of
// the degree profile — the generalization the PODC 2009 predecessor
// algorithm supports (Section 1.3 of the paper). It returns -1 when the
// walk stays at v (or v is isolated).
func (g *G) MHPortAt(v NodeID, x uint64) int {
	port := g.PortAt(v, x)
	if port < 0 {
		return -1
	}
	if ratio := g.acceptRatio(v, port); ratio >= 1 || unitFloat(rng.Mix64(x)) < ratio {
		return port
	}
	return -1
}

// unitFloat maps x to [0, 1) with 53 bits of precision, as rng.Float64
// maps a stream's next value.
func unitFloat(x uint64) float64 { return float64(x>>11) / (1 << 53) }

// MinDegree returns the minimum degree, or 0 for an empty graph.
func (g *G) MinDegree() int {
	if g.N() == 0 {
		return 0
	}
	min := len(g.adj[0])
	for _, hs := range g.adj[1:] {
		if len(hs) < min {
			min = len(hs)
		}
	}
	return min
}

// MaxDegree returns the maximum degree, or 0 for an empty graph.
func (g *G) MaxDegree() int {
	max := 0
	for _, hs := range g.adj {
		if len(hs) > max {
			max = len(hs)
		}
	}
	return max
}

// Validate checks structural invariants (degree sum, endpoint symmetry,
// weight caches). It is O(n + m) and intended for tests and generators.
func (g *G) Validate() error {
	halves := 0
	for v, hs := range g.adj {
		wsum := 0.0
		for _, h := range hs {
			if !g.valid(h.To) {
				return fmt.Errorf("graph: node %d has neighbor %d out of range", v, h.To)
			}
			if int(h.E) >= len(g.edges) {
				return fmt.Errorf("graph: node %d references edge %d out of range", v, h.E)
			}
			e := g.edges[h.E]
			if (e.U != NodeID(v) && e.V != NodeID(v)) || (e.U != h.To && e.V != h.To) {
				return fmt.Errorf("graph: half-edge at %d disagrees with edge %d", v, h.E)
			}
			wsum += h.W
		}
		if diff := wsum - g.wdeg[v]; diff > 1e-9 || diff < -1e-9 {
			return fmt.Errorf("graph: node %d cached weighted degree %v != %v", v, g.wdeg[v], wsum)
		}
		halves += len(hs)
	}
	if halves != 2*len(g.edges) {
		return fmt.Errorf("graph: %d half-edges for %d edges", halves, len(g.edges))
	}
	return nil
}

// errEmpty is returned by traversals on graphs with no vertices.
var errEmpty = errors.New("graph: empty graph")

func (g *G) valid(v NodeID) bool { return v >= 0 && int(v) < len(g.adj) }
