package graph

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"distwalk/internal/rng"
)

// FuzzApplyEdits decodes a byte stream into batches of edge edits and
// applies them in turn to a small seeded graph, against a model: the edge
// list as a plain slice, edited the way ApplyEdits documents (removals
// take the lowest-index matching edge and swap the last edge into its
// slot, then additions append). Every batch must leave its source graph
// untouched, fail only with ErrEdit and exactly when the model refuses
// it, and on success equal a graph rebuilt from the model's edges: the
// same edges, degrees and weighted degrees.
//
// Each edit is four bytes: op (0 add, 1 remove, 2 apply the batch so far),
// u and v (one past either end of [0, n) is out of range) and a weight
// code. The weights are exact in binary, so sums do not depend on order,
// except for the codes that must be refused: negative, NaN and ±Inf.
func FuzzApplyEdits(f *testing.F) {
	f.Add([]byte{0, 1, 3, 0, 2, 0, 0, 0, 1, 1, 3, 0})             // add an edge, then remove it in the next batch
	f.Add([]byte{1, 1, 2, 0, 1, 1, 3, 0, 1, 1, 4, 0, 1, 1, 5, 0}) // removals that may isolate node 0
	f.Add([]byte{0, 2, 5, 9, 0, 2, 5, 6, 2, 0, 0, 0, 1, 5, 2, 0}) // weighted parallel edges, the lowest index removed
	f.Add([]byte{0, 1, 1, 0, 0, 0, 1, 0, 1, 4, 10, 0})            // a self-loop and endpoints out of range
	f.Fuzz(func(t *testing.T, data []byte) {
		g := fuzzBase(t)
		model := g.Edges()
		var remove, add []EdgeEdit
		for len(data) > 0 {
			if len(data) >= 4 && data[0]%3 != 2 {
				ed := EdgeEdit{U: fuzzNode(g, data[1]), V: fuzzNode(g, data[2]), W: fuzzWeight(data[3])}
				if data[0]%3 == 0 {
					add = append(add, ed)
				} else {
					remove = append(remove, ed)
				}
				data = data[4:]
				continue
			}
			g, model = applyChecked(t, g, model, remove, add)
			remove, add = nil, nil
			data = data[min(4, len(data)):]
		}
		applyChecked(t, g, model, remove, add)
	})
}

// fuzzBase is the seeded starting graph: a connected random graph on 8
// nodes plus a weighted parallel edge.
func fuzzBase(t *testing.T) *G {
	g, err := ConnectedER(8, 0.35, rng.New(7), 100)
	if err != nil {
		t.Fatal(err)
	}
	h := g.Edge(0)
	if err := g.AddWeightedEdge(h.U, h.V, 2.5); err != nil {
		t.Fatal(err)
	}
	return g
}

// fuzzNode maps a byte onto [-1, n]: every node plus one out-of-range ID
// at each end.
func fuzzNode(g *G, b byte) NodeID { return NodeID(int(b)%(g.N()+2) - 1) }

// fuzzWeight maps a byte onto the weight codes.
func fuzzWeight(b byte) float64 {
	switch b % 16 {
	case 0:
		return 0 // the unweighted convention: weight 1
	case 1:
		return math.NaN()
	case 2:
		return math.Inf(1)
	case 3:
		return math.Inf(-1)
	case 4:
		return -0.5
	}
	return float64(b%16) / 4
}

// applyChecked applies one batch to g and checks it against the model,
// returning the graph and model the next batch starts from.
func applyChecked(t *testing.T, g *G, model []Edge, remove, add []EdgeEdit) (*G, []Edge) {
	t.Helper()
	before := digest(g)
	out, err := g.ApplyEdits(remove, add)
	if after := digest(g); after != before {
		t.Fatalf("ApplyEdits(%v, %v) modified its source graph", remove, add)
	}
	next, ok := modelEdits(g.N(), model, remove, add)
	switch {
	case err != nil && !errors.Is(err, ErrEdit):
		t.Fatalf("ApplyEdits(%v, %v): error %v does not wrap ErrEdit", remove, add, err)
	case err != nil && ok:
		t.Fatalf("ApplyEdits(%v, %v) refused a valid batch: %v", remove, add, err)
	case err == nil && !ok:
		t.Fatalf("ApplyEdits(%v, %v) accepted a batch the model refuses", remove, add)
	case err != nil:
		return g, model
	}
	rebuilt := New(g.N())
	for _, e := range next {
		if err := rebuilt.AddWeightedEdge(e.U, e.V, e.W); err != nil {
			t.Fatalf("rebuilding from the model: %v", err)
		}
	}
	if err := out.Validate(); err != nil {
		t.Fatalf("ApplyEdits(%v, %v): %v", remove, add, err)
	}
	if got, want := edgeSet(out), edgeSet(rebuilt); !slices.Equal(got, want) {
		t.Fatalf("ApplyEdits(%v, %v): edges %v, want %v", remove, add, got, want)
	}
	for v := 0; v < g.N(); v++ {
		u := NodeID(v)
		if out.Degree(u) != rebuilt.Degree(u) || out.WeightedDegree(u) != rebuilt.WeightedDegree(u) {
			t.Fatalf("ApplyEdits(%v, %v): node %d has degree %d, weighted %v; rebuilt %d, %v", remove, add,
				v, out.Degree(u), out.WeightedDegree(u), rebuilt.Degree(u), rebuilt.WeightedDegree(u))
		}
	}
	if out.Weighted() != rebuilt.Weighted() {
		t.Fatalf("ApplyEdits(%v, %v): Weighted() = %v, rebuilt %v", remove, add, out.Weighted(), rebuilt.Weighted())
	}
	return out, next
}

// modelEdits applies a batch to a copy of the model edge list, reporting
// whether ApplyEdits must accept it.
func modelEdits(n int, model []Edge, remove, add []EdgeEdit) ([]Edge, bool) {
	valid := func(ed EdgeEdit) bool {
		return ed.U != ed.V && ed.U >= 0 && ed.V >= 0 && int(ed.U) < n && int(ed.V) < n
	}
	es := slices.Clone(model)
	deg := make([]int, n)
	for _, e := range es {
		deg[e.U]++
		deg[e.V]++
	}
	var touched []NodeID
	for _, ed := range remove {
		if !valid(ed) {
			return nil, false
		}
		i := slices.IndexFunc(es, func(e Edge) bool {
			return (e.U == ed.U && e.V == ed.V) || (e.U == ed.V && e.V == ed.U)
		})
		if i < 0 {
			return nil, false
		}
		deg[ed.U]--
		deg[ed.V]--
		es[i] = es[len(es)-1]
		es = es[:len(es)-1]
		touched = append(touched, ed.U, ed.V)
	}
	for _, ed := range add {
		w := ed.W
		if w == 0 {
			w = 1
		}
		if !valid(ed) || !(w > 0) || math.IsInf(w, 1) {
			return nil, false
		}
		es = append(es, Edge{U: ed.U, V: ed.V, W: w})
		deg[ed.U]++
		deg[ed.V]++
		touched = append(touched, ed.U, ed.V)
	}
	for _, v := range touched {
		if deg[v] == 0 {
			return nil, false
		}
	}
	return es, true
}

// edgeSet is g's edge multiset in canonical form.
func edgeSet(g *G) []string {
	var out []string
	for _, e := range g.Edges() {
		u, v := min(e.U, e.V), max(e.U, e.V)
		out = append(out, fmt.Sprintf("%d-%d:%v", u, v, e.W))
	}
	slices.Sort(out)
	return out
}

// digest renders everything ApplyEdits could modify in place: the edge
// list, every adjacency segment and the weighted-degree cache.
func digest(g *G) string {
	var b strings.Builder
	fmt.Fprintln(&b, g.Edges(), g.Weighted())
	for v := 0; v < g.N(); v++ {
		fmt.Fprintln(&b, g.Neighbors(NodeID(v)), math.Float64bits(g.WeightedDegree(NodeID(v))))
	}
	return b.String()
}
