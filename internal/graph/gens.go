package graph

import (
	"errors"
	"fmt"
	"math"

	"distwalk/internal/rng"
)

// This file implements the graph families used throughout the paper's
// analysis and in the tests that hold its claims:
//
//   - line/cycle: the tight case for the visit bound of Lemma 2.6 ("this
//     bound is tight in general (e.g., consider a line and a walk of
//     length n)") and the worst case for connector periodicity (Lemma 2.7).
//   - torus/grid: moderate-diameter sparse graphs, the workhorse for the
//     Õ(√(ℓD)) scaling tests.
//   - candy (clique+path), barbell: families whose diameter is a free
//     parameter at (roughly) fixed m, used for the D-dependence sweep.
//   - random geometric graphs: the paper's motivating family for mixing-
//     time estimation (τ_mix can exceed D by Ω(√n), Section 1.2).
//   - random regular / Erdős–Rényi: expanders, the "rapidly mixing" regime.
//   - hypercube, complete, star, binary tree: classical references.
//
// The lower-bound construction G_n (Definition 3.3) lives in lowerbound.go.

// Path returns the path v0-v1-...-v(n-1).
func Path(n int) (*G, error) {
	if n < 1 {
		return nil, fmt.Errorf("graph: path needs n >= 1, got %d", n)
	}
	g := New(n)
	for i := 0; i+1 < n; i++ {
		mustAdd(g, NodeID(i), NodeID(i+1))
	}
	return g, nil
}

// Cycle returns the n-cycle. Requires n >= 3.
func Cycle(n int) (*G, error) {
	if n < 3 {
		return nil, fmt.Errorf("graph: cycle needs n >= 3, got %d", n)
	}
	g := New(n)
	for i := 0; i < n; i++ {
		mustAdd(g, NodeID(i), NodeID((i+1)%n))
	}
	return g, nil
}

// Complete returns the complete graph K_n.
func Complete(n int) (*G, error) {
	if n < 1 {
		return nil, fmt.Errorf("graph: complete graph needs n >= 1, got %d", n)
	}
	g := New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			mustAdd(g, NodeID(i), NodeID(j))
		}
	}
	return g, nil
}

// Star returns the star with center 0 and n-1 leaves.
func Star(n int) (*G, error) {
	if n < 2 {
		return nil, fmt.Errorf("graph: star needs n >= 2, got %d", n)
	}
	g := New(n)
	for i := 1; i < n; i++ {
		mustAdd(g, 0, NodeID(i))
	}
	return g, nil
}

// BinaryTree returns the complete binary tree on n nodes in heap order
// (children of i are 2i+1 and 2i+2).
func BinaryTree(n int) (*G, error) {
	if n < 1 {
		return nil, fmt.Errorf("graph: binary tree needs n >= 1, got %d", n)
	}
	g := New(n)
	for i := 1; i < n; i++ {
		mustAdd(g, NodeID((i-1)/2), NodeID(i))
	}
	return g, nil
}

// Grid returns the rows x cols grid graph.
func Grid(rows, cols int) (*G, error) {
	if rows < 1 || cols < 1 {
		return nil, fmt.Errorf("graph: grid needs positive dims, got %dx%d", rows, cols)
	}
	g := New(rows * cols)
	id := func(r, c int) NodeID { return NodeID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				mustAdd(g, id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				mustAdd(g, id(r, c), id(r+1, c))
			}
		}
	}
	return g, nil
}

// Torus returns the rows x cols torus (grid with wraparound). Both
// dimensions must be >= 3 so that no parallel edges arise.
func Torus(rows, cols int) (*G, error) {
	if rows < 3 || cols < 3 {
		return nil, fmt.Errorf("graph: torus needs dims >= 3, got %dx%d", rows, cols)
	}
	g := New(rows * cols)
	id := func(r, c int) NodeID { return NodeID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			mustAdd(g, id(r, c), id(r, (c+1)%cols))
			mustAdd(g, id(r, c), id((r+1)%rows, c))
		}
	}
	return g, nil
}

// Hypercube returns the dim-dimensional hypercube on 2^dim nodes.
func Hypercube(dim int) (*G, error) {
	if dim < 1 || dim > 24 {
		return nil, fmt.Errorf("graph: hypercube dimension %d out of [1,24]", dim)
	}
	n := 1 << dim
	g := New(n)
	for v := 0; v < n; v++ {
		for b := 0; b < dim; b++ {
			u := v ^ (1 << b)
			if u > v {
				mustAdd(g, NodeID(v), NodeID(u))
			}
		}
	}
	return g, nil
}

// Candy returns a "candy" (lollipop) graph: a clique on cliqueSize nodes
// with a path of pathLen extra nodes attached to clique node 0. Its
// diameter is pathLen + 1 (for cliqueSize >= 2), so at a fixed edge budget
// the family trades diameter against density — the knob for Theorem
// 2.5's D-dependence (TestClaimThm25RoundsInD).
func Candy(cliqueSize, pathLen int) (*G, error) {
	if cliqueSize < 2 {
		return nil, fmt.Errorf("graph: candy needs cliqueSize >= 2, got %d", cliqueSize)
	}
	if pathLen < 0 {
		return nil, fmt.Errorf("graph: candy needs pathLen >= 0, got %d", pathLen)
	}
	g := New(cliqueSize + pathLen)
	for i := 0; i < cliqueSize; i++ {
		for j := i + 1; j < cliqueSize; j++ {
			mustAdd(g, NodeID(i), NodeID(j))
		}
	}
	prev := NodeID(0)
	for i := 0; i < pathLen; i++ {
		next := NodeID(cliqueSize + i)
		mustAdd(g, prev, next)
		prev = next
	}
	return g, nil
}

// Barbell returns two cliques of size cliqueSize joined by a path of
// pathLen intermediate nodes (pathLen == 0 joins the cliques directly).
func Barbell(cliqueSize, pathLen int) (*G, error) {
	if cliqueSize < 2 {
		return nil, fmt.Errorf("graph: barbell needs cliqueSize >= 2, got %d", cliqueSize)
	}
	if pathLen < 0 {
		return nil, fmt.Errorf("graph: barbell needs pathLen >= 0, got %d", pathLen)
	}
	n := 2*cliqueSize + pathLen
	g := New(n)
	clique := func(off int) {
		for i := 0; i < cliqueSize; i++ {
			for j := i + 1; j < cliqueSize; j++ {
				mustAdd(g, NodeID(off+i), NodeID(off+j))
			}
		}
	}
	clique(0)
	clique(cliqueSize + pathLen)
	prev := NodeID(0)
	for i := 0; i < pathLen; i++ {
		next := NodeID(cliqueSize + i)
		mustAdd(g, prev, next)
		prev = next
	}
	mustAdd(g, prev, NodeID(cliqueSize+pathLen))
	return g, nil
}

// ER returns an Erdős–Rényi G(n, p) sample. The result may be
// disconnected; use ConnectedER to resample until connected.
func ER(n int, p float64, r *rng.RNG) (*G, error) {
	if n < 1 {
		return nil, fmt.Errorf("graph: ER needs n >= 1, got %d", n)
	}
	if p < 0 || p > 1 {
		return nil, fmt.Errorf("graph: ER needs p in [0,1], got %v", p)
	}
	g := New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Float64() < p {
				mustAdd(g, NodeID(i), NodeID(j))
			}
		}
	}
	return g, nil
}

// ConnectedER resamples G(n, p) until a connected graph is found, up to
// maxTries attempts.
func ConnectedER(n int, p float64, r *rng.RNG, maxTries int) (*G, error) {
	return retryConnected(fmt.Sprintf("ER(n=%d, p=%v)", n, p), maxTries, func() (*G, error) { return ER(n, p, r) })
}

// RandomRegular returns a random d-regular simple graph on n nodes via the
// configuration (pairing) model with rejection of loops and parallel edges.
// n*d must be even and d < n.
func RandomRegular(n, d int, r *rng.RNG) (*G, error) {
	switch {
	case n < 1 || d < 1:
		return nil, fmt.Errorf("graph: random regular needs n,d >= 1, got n=%d d=%d", n, d)
	case n*d%2 != 0:
		return nil, fmt.Errorf("graph: random regular needs n*d even, got n=%d d=%d", n, d)
	case d >= n:
		return nil, fmt.Errorf("graph: random regular needs d < n, got n=%d d=%d", n, d)
	}
	const maxTries = 2000
	for try := 0; try < maxTries; try++ {
		if g := tryPairing(n, d, r); g != nil {
			return g, nil
		}
	}
	return nil, &RetryError{
		Op:    fmt.Sprintf("random regular pairing (n=%d d=%d)", n, d),
		Tries: maxTries,
		Last:  errNoSimplePairing,
	}
}

func tryPairing(n, d int, r *rng.RNG) *G {
	stubs := make([]NodeID, 0, n*d)
	for v := 0; v < n; v++ {
		for i := 0; i < d; i++ {
			stubs = append(stubs, NodeID(v))
		}
	}
	r.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	g := New(n)
	seen := make(map[[2]NodeID]bool, n*d/2)
	for i := 0; i < len(stubs); i += 2 {
		u, v := stubs[i], stubs[i+1]
		if u == v {
			return nil
		}
		key := [2]NodeID{u, v}
		if u > v {
			key = [2]NodeID{v, u}
		}
		if seen[key] {
			return nil
		}
		seen[key] = true
		mustAdd(g, u, v)
	}
	return g
}

// ConnectedRandomRegular resamples a random d-regular graph until connected.
func ConnectedRandomRegular(n, d int, r *rng.RNG, maxTries int) (*G, error) {
	return retryConnected(fmt.Sprintf("random regular(n=%d, d=%d)", n, d), maxTries, func() (*G, error) { return RandomRegular(n, d, r) })
}

// RGG returns a random geometric graph: n points uniform in the unit
// square, edges between pairs within Euclidean distance radius. This is
// the paper's motivating ad-hoc-network model (Section 1.2), whose mixing
// time can exceed the diameter by a polynomial factor.
func RGG(n int, radius float64, r *rng.RNG) (*G, error) {
	if n < 1 {
		return nil, fmt.Errorf("graph: RGG needs n >= 1, got %d", n)
	}
	if radius <= 0 {
		return nil, fmt.Errorf("graph: RGG needs radius > 0, got %v", radius)
	}
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = r.Float64()
		ys[i] = r.Float64()
	}
	g := New(n)
	// Grid-bucket the points so edge generation is near-linear for the
	// connectivity-threshold radii used in practice.
	cells := int(1 / radius)
	if cells < 1 {
		cells = 1
	}
	bucket := make(map[[2]int][]int)
	cellOf := func(i int) [2]int {
		cx, cy := int(xs[i]*float64(cells)), int(ys[i]*float64(cells))
		if cx >= cells {
			cx = cells - 1
		}
		if cy >= cells {
			cy = cells - 1
		}
		return [2]int{cx, cy}
	}
	for i := 0; i < n; i++ {
		c := cellOf(i)
		bucket[c] = append(bucket[c], i)
	}
	r2 := radius * radius
	for i := 0; i < n; i++ {
		c := cellOf(i)
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				for _, j := range bucket[[2]int{c[0] + dx, c[1] + dy}] {
					if j <= i {
						continue
					}
					ddx, ddy := xs[i]-xs[j], ys[i]-ys[j]
					if ddx*ddx+ddy*ddy <= r2 {
						mustAdd(g, NodeID(i), NodeID(j))
					}
				}
			}
		}
	}
	return g, nil
}

// ConnectedRGG resamples a random geometric graph until connected. The
// connectivity threshold is radius ~ sqrt(ln n / (pi n)); pass a radius
// comfortably above it to keep the retry count low.
func ConnectedRGG(n int, radius float64, r *rng.RNG, maxTries int) (*G, error) {
	return retryConnected(fmt.Sprintf("RGG(n=%d, r=%v)", n, radius), maxTries, func() (*G, error) { return RGG(n, radius, r) })
}

// RGGThresholdRadius returns a radius moderately above the connectivity
// threshold for an n-point RGG, suitable for ConnectedRGG.
func RGGThresholdRadius(n int) float64 {
	if n < 2 {
		return 1
	}
	return 1.5 * math.Sqrt(math.Log(float64(n))/(math.Pi*float64(n)))
}

func retryConnected(op string, maxTries int, gen func() (*G, error)) (*G, error) {
	if maxTries < 1 {
		maxTries = 1
	}
	var lastErr error
	for i := 0; i < maxTries; i++ {
		g, err := gen()
		if err != nil {
			// Parameter errors cannot improve with retries; surface them
			// immediately rather than burning the budget.
			var retry *RetryError
			if !errors.As(err, &retry) {
				return nil, err
			}
			lastErr = err
			continue
		}
		if g.Connected() {
			return g, nil
		}
		lastErr = ErrDisconnected
	}
	return nil, &RetryError{Op: op, Tries: maxTries, Last: lastErr}
}

// mustAdd adds an edge produced by a generator; generators only produce
// in-range loop-free edges, so a failure here is a bug in the generator.
func mustAdd(g *G, u, v NodeID) {
	if err := g.AddEdge(u, v); err != nil {
		panic("graph: generator produced invalid edge: " + err.Error())
	}
}
