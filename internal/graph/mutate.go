package graph

// Copy-on-write edge mutation. ApplyEdits derives a new graph from an
// existing one without touching the original: the outer adjacency array,
// the edge list and the weighted-degree cache are copied (O(n + m) slice
// headers and scalars), but the per-node half-edge segments are shared
// with the source graph and cloned only for nodes an edit actually
// touches. The source graph therefore stays fully usable — in-flight
// walks pinned to it keep executing against an immutable topology while
// new requests admit against the derived one.
//
// Removal uses swap-remove on the edge list: the last edge fills the
// removed slot and the (at most two) nodes referencing it have their E
// indices rewritten. This keeps edge indices dense without shifting the
// indices of every later edge, so untouched adjacency segments remain
// valid — and shareable — verbatim.

import (
	"errors"
	"fmt"
)

// ErrEdit reports an invalid edge edit: endpoints out of range, a
// self-loop, a negative weight, a removal with no matching edge, or an
// edit that would leave a node isolated. Errors returned by ApplyEdits
// match it under errors.Is.
var ErrEdit = errors.New("graph: invalid edge edit")

// EdgeEdit names one undirected edge to add or remove. For additions, W
// is the edge weight (0 means 1, the unweighted convention; negative is
// an error). For removals, W is ignored and the lowest-index edge
// joining U and V (either orientation) is removed — with parallel edges
// this is the earliest-inserted survivor.
type EdgeEdit struct {
	U, V NodeID
	W    float64
}

// ApplyEdits returns a new graph equal to g with the removals applied
// (in order) and then the additions (in order). g itself is never
// modified. The result shares the half-edge segments of every node no
// edit touched. An invalid edit fails the whole batch with an error
// wrapping ErrEdit and g's derived graph is discarded; ApplyEdits is
// all-or-nothing.
//
// Edits that leave any touched node with degree 0 are rejected: the
// walk protocols have no move from an isolated node, so allowing one
// would trade a construction-time error for a run-time one on every
// request that lands there.
func (g *G) ApplyEdits(remove, add []EdgeEdit) (*G, error) {
	n := g.N()
	out := &G{
		adj:   make([][]Half, n),
		edges: make([]Edge, len(g.edges)),
		wdeg:  make([]float64, n),
	}
	copy(out.adj, g.adj)
	copy(out.edges, g.edges)
	copy(out.wdeg, g.wdeg)

	// owned marks nodes whose half-edge segment has been cloned and may
	// be modified in place; untouched nodes keep sharing g's segment.
	owned := make(map[NodeID]bool, 2*(len(remove)+len(add)))
	own := func(v NodeID) {
		if owned[v] {
			return
		}
		out.adj[v] = append([]Half(nil), out.adj[v]...)
		owned[v] = true
	}

	for i, ed := range remove {
		if err := checkEndpoints(out, ed.U, ed.V); err != nil {
			return nil, fmt.Errorf("remove[%d]: %w", i, err)
		}
		// Lowest-index edge joining the endpoints, scanning the smaller
		// adjacency side. E values are not sorted within a segment after
		// earlier swap-removes, so take the minimum over all matches.
		u, v := ed.U, ed.V
		if len(out.adj[u]) > len(out.adj[v]) {
			u, v = v, u
		}
		re := int32(-1)
		for _, h := range out.adj[u] {
			if h.To == v && (re < 0 || h.E < re) {
				re = h.E
			}
		}
		if re < 0 {
			return nil, fmt.Errorf("remove[%d]: %w: no edge (%d,%d)", i, ErrEdit, ed.U, ed.V)
		}
		w := out.edges[re].W
		own(u)
		own(v)
		dropHalf(out.adj[u], &out.adj[u], re)
		dropHalf(out.adj[v], &out.adj[v], re)
		out.wdeg[u] -= w
		out.wdeg[v] -= w
		// Swap-remove: the last edge moves into slot re; rewrite its two
		// halves' E indices.
		last := int32(len(out.edges) - 1)
		if re != last {
			moved := out.edges[last]
			out.edges[re] = moved
			own(moved.U)
			own(moved.V)
			retagHalf(out.adj[moved.U], last, re)
			retagHalf(out.adj[moved.V], last, re)
		}
		out.edges = out.edges[:last]
	}

	for i, ed := range add {
		if err := checkEndpoints(out, ed.U, ed.V); err != nil {
			return nil, fmt.Errorf("add[%d]: %w", i, err)
		}
		w := ed.W
		if w == 0 {
			w = 1
		}
		if w < 0 {
			return nil, fmt.Errorf("add[%d]: %w: edge (%d,%d) has negative weight %v", i, ErrEdit, ed.U, ed.V, w)
		}
		own(ed.U)
		own(ed.V)
		e := int32(len(out.edges))
		out.edges = append(out.edges, Edge{U: ed.U, V: ed.V, W: w})
		out.adj[ed.U] = append(out.adj[ed.U], Half{To: ed.V, W: w, E: e})
		out.adj[ed.V] = append(out.adj[ed.V], Half{To: ed.U, W: w, E: e})
		out.wdeg[ed.U] += w
		out.wdeg[ed.V] += w
	}

	for v := range owned {
		if len(out.adj[v]) == 0 {
			return nil, fmt.Errorf("%w: edits leave node %d isolated", ErrEdit, v)
		}
	}
	// Recompute rather than inherit: removals may have deleted the only
	// non-unit-weight edges, and a stale weighted flag would change
	// StepPort's sampling path (breaking bit-identity with an equivalent
	// freshly built graph).
	out.weighted = false
	for _, e := range out.edges {
		if e.W != 1 {
			out.weighted = true
			break
		}
	}
	return out, nil
}

func checkEndpoints(g *G, u, v NodeID) error {
	switch {
	case u == v:
		return fmt.Errorf("%w: self-loop at node %d", ErrEdit, u)
	case !g.valid(u) || !g.valid(v):
		return fmt.Errorf("%w: edge (%d,%d) out of range [0,%d)", ErrEdit, u, v, g.N())
	}
	return nil
}

// dropHalf removes the single half with edge index e from hs (which the
// caller owns), writing the shortened slice to dst.
func dropHalf(hs []Half, dst *[]Half, e int32) {
	for j, h := range hs {
		if h.E == e {
			*dst = append(hs[:j], hs[j+1:]...)
			return
		}
	}
}

// retagHalf rewrites the E index of the single half in hs tagged from
// to the new index to.
func retagHalf(hs []Half, from, to int32) {
	for j := range hs {
		if hs[j].E == from {
			hs[j].E = to
			return
		}
	}
}
