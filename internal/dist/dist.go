// Package dist provides exact (centralized) probability distributions over
// the nodes of a graph: t-step walk distributions, Metropolis-Hastings
// variants, and stationary/uniform/point vectors. The distributed
// algorithms are validated against these reference quantities (e.g. the
// chi-square endpoint tests and the mixing-time brackets).
//
// The transition semantics mirror graph.Step and graph.MHPortAt exactly:
// the simple walk moves along an incident edge chosen with probability
// proportional to its weight; the MH walk proposes the same way and
// accepts with probability min(1, W(u)/W(v)), staying put otherwise.
package dist

import (
	"fmt"
	"math"

	"distwalk/internal/graph"
)

// Vec is a probability vector (or more generally a signed measure) over
// the nodes 0..n-1 of a graph.
type Vec []float64

// Sum returns the total mass of the vector.
func (p Vec) Sum() float64 {
	s := 0.0
	for _, x := range p {
		s += x
	}
	return s
}

// L1 returns the ℓ₁ distance ‖p − q‖₁. The vectors must have equal length.
func (p Vec) L1(q Vec) float64 {
	d := 0.0
	for i, x := range p {
		d += math.Abs(x - q[i])
	}
	return d
}

// TV returns the total-variation distance, ‖p − q‖₁ / 2.
func (p Vec) TV(q Vec) float64 { return p.L1(q) / 2 }

// Uniform returns the uniform distribution over n nodes (empty for n <= 0).
func Uniform(n int) Vec {
	if n <= 0 {
		return Vec{}
	}
	u := make(Vec, n)
	for i := range u {
		u[i] = 1 / float64(n)
	}
	return u
}

// Point returns the point mass at node v.
func Point(n int, v graph.NodeID) (Vec, error) {
	if v < 0 || int(v) >= n {
		return nil, fmt.Errorf("dist: node %d out of range [0,%d)", v, n)
	}
	p := make(Vec, n)
	p[v] = 1
	return p, nil
}

// Stationary returns the stationary distribution of the simple random walk,
// π(v) = W(v)/ΣW where W is the weighted degree (deg(v)/2m unweighted).
func Stationary(g *graph.G) (Vec, error) {
	n := g.N()
	if n == 0 {
		return nil, fmt.Errorf("dist: empty graph")
	}
	pi := make(Vec, n)
	total := 0.0
	for v := 0; v < n; v++ {
		w := g.WeightedDegree(graph.NodeID(v))
		pi[v] = w
		total += w
	}
	if total <= 0 {
		return nil, fmt.Errorf("dist: graph has no edges")
	}
	for v := range pi {
		pi[v] /= total
	}
	return pi, nil
}

// Step applies one step of the simple random walk to p: the returned vector
// is p·P where P(u→v) = Σ_{edges u~v} w(e)/W(u). It fails if any node
// carrying mass is isolated (its transition row is undefined).
func Step(g *graph.G, p Vec) (Vec, error) {
	if len(p) != g.N() {
		return nil, fmt.Errorf("dist: vector has %d entries, graph has %d nodes", len(p), g.N())
	}
	next := make(Vec, len(p))
	for u, mass := range p {
		if mass == 0 {
			continue
		}
		w := g.WeightedDegree(graph.NodeID(u))
		if w <= 0 {
			return nil, fmt.Errorf("dist: node %d is isolated but carries mass %v", u, mass)
		}
		for _, h := range g.Neighbors(graph.NodeID(u)) {
			next[h.To] += mass * h.W / w
		}
	}
	return next, nil
}

// MHStep applies one step of the Metropolis-Hastings walk with uniform
// target to p: propose a neighbor with probability proportional to edge
// weight, accept with probability min(1, W(u)/W(v)), otherwise stay.
func MHStep(g *graph.G, p Vec) (Vec, error) {
	if len(p) != g.N() {
		return nil, fmt.Errorf("dist: vector has %d entries, graph has %d nodes", len(p), g.N())
	}
	next := make(Vec, len(p))
	for u, mass := range p {
		if mass == 0 {
			continue
		}
		wu := g.WeightedDegree(graph.NodeID(u))
		if wu <= 0 {
			return nil, fmt.Errorf("dist: node %d is isolated but carries mass %v", u, mass)
		}
		stay := 0.0
		for _, h := range g.Neighbors(graph.NodeID(u)) {
			prop := h.W / wu
			acc := wu / g.WeightedDegree(h.To)
			if acc > 1 {
				acc = 1
			}
			next[h.To] += mass * prop * acc
			stay += mass * prop * (1 - acc)
		}
		next[u] += stay
	}
	return next, nil
}

// WalkDist returns the exact t-step simple-walk distribution from src.
func WalkDist(g *graph.G, src graph.NodeID, t int) (Vec, error) {
	return iterate(g, src, t, Step)
}

// MHWalkDist returns the exact t-step Metropolis-Hastings walk distribution
// from src (uniform target).
func MHWalkDist(g *graph.G, src graph.NodeID, t int) (Vec, error) {
	return iterate(g, src, t, MHStep)
}

func iterate(g *graph.G, src graph.NodeID, t int, step func(*graph.G, Vec) (Vec, error)) (Vec, error) {
	if t < 0 {
		return nil, fmt.Errorf("dist: negative walk length %d", t)
	}
	p, err := Point(g.N(), src)
	if err != nil {
		return nil, err
	}
	for i := 0; i < t; i++ {
		if p, err = step(g, p); err != nil {
			return nil, err
		}
	}
	return p, nil
}
