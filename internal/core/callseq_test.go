package core

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"distwalk/internal/graph"
)

// FuzzWalkerCallSequence drives one warm walker through an arbitrary call
// sequence and checks its determinism contract after every call:
//
//   - owned[v] equals a recount of v's unused coupons (couponTotal), the
//     count the kept-inventory top-up trusts;
//   - the first call after a Reset equals the same call on a freshly built
//     walker bit for bit, Cost included;
//   - a successful RegenerateMany, run again, returns the same traces bit
//     for bit: regeneration is a pure function of the walk;
//   - every error is one of the package's typed errors, and nothing
//     panics.
//
// The first byte picks the graph (C5, K4, a kite, Torus(4,4)); then each
// call is four bytes: an op (SingleRandomWalk, ManyRandomWalks, NaiveWalk,
// Regenerate, RegenerateMany, Reset, or a λ override) and three operands.
// A λ override sets Params.Lambda to a value in [λ_inv/2, 3·λ_inv], where
// λ_inv is the kept inventory's λ, so calls keep, top up and re-provision
// the inventory in every order. Sources range one past the graph, so
// ErrBadNode is exercised too. No fault plan is installed: under one,
// owned over-counts the walks a lost token never stored.
func FuzzWalkerCallSequence(f *testing.F) {
	const (
		opSingle = iota
		opMany
		opNaive
		opRegen
		opRegenMany
		opReset
		opLambda
		numOps
	)
	const seed, maxCalls = 5, 24
	// Stitched walks, a kept-inventory call and a replay of both.
	f.Add([]byte{3, opLambda, 0, 0, 0, opSingle, 0, 60, 0, opLambda, 10, 0, 0, opMany, 1, 70, 5, opRegenMany, 0, 0, 0})
	// A reset, then the same walk as a fresh walker's, then a stale replay.
	f.Add([]byte{2, opSingle, 1, 50, 0, opReset, 0, 0, 0, opSingle, 1, 50, 0, opRegen, 0, 0, 0})
	// Refills under a tiny λ on K4, Metropolis after a reset, a bad node.
	f.Add([]byte{1, opLambda, 1, 0, 0, opSingle, 0, 90, 0, opRegen, 0, 0, 0, opReset, 1, 0, 0, opMany, 3, 40, 2, opNaive, 4, 20, 0})
	// Uniform counts on C5, a λ override past twice the inventory's.
	f.Add([]byte{0, opReset, 2, 0, 0, opSingle, 2, 80, 0, opLambda, 200, 0, 0, opSingle, 3, 80, 0, opRegenMany, 0, 0, 0})
	graphs := make([]*graph.G, 4)
	var err error
	if graphs[0], err = graph.Cycle(5); err != nil {
		f.Fatal(err)
	}
	if graphs[1], err = graph.Complete(4); err != nil {
		f.Fatal(err)
	}
	if graphs[2], err = graph.Candy(4, 2); err != nil {
		f.Fatal(err)
	}
	if graphs[3], err = graph.Torus(4, 4); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		g := graphs[int(in[0])%len(graphs)]
		n := g.N()
		w, err := NewWalker(g, seed, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		var walks []*WalkResult // every walk returned, stale ones included
		fresh := true           // w is in a freshly built walker's state
		in = in[1:]
		for calls := 0; len(in) >= 4 && calls < maxCalls; calls++ {
			op, a, b, c := int(in[0])%numOps, int(in[1]), int(in[2]), int(in[3])
			in = in[4:]
			var call func(w *Walker) (any, error)
			switch op {
			case opSingle, opNaive:
				src, ell := graph.NodeID(a%(n+1)), b%97
				call = func(w *Walker) (any, error) {
					if op == opNaive {
						return w.NaiveWalk(src, ell)
					}
					return w.SingleRandomWalk(src, ell)
				}
			case opMany:
				sources := make([]graph.NodeID, 1+a%4)
				for i := range sources {
					sources[i] = graph.NodeID((c + 3*i) % (n + 1))
				}
				ell := b % 97
				call = func(w *Walker) (any, error) { return w.ManyRandomWalks(sources, ell) }
			case opRegen, opRegenMany:
				if len(walks) == 0 {
					continue
				}
				picked := walks[a%len(walks):]
				if op == opRegen {
					picked = picked[:1]
				}
				call = func(w *Walker) (any, error) { return w.RegenerateMany(picked) }
			case opReset:
				prm := DefaultParams()
				prm.Metropolis = a%3 == 1
				prm.UniformCounts = a%3 == 2
				if err := w.Reset(prm); err != nil {
					t.Fatalf("Reset: %v", err)
				}
				fresh = true
				continue
			case opLambda:
				if a == 0 {
					w.prm.Lambda = 0 // back to the call's own λ
					continue
				}
				inv := max(w.lambda, 2)
				w.prm.Lambda = max(1, inv/2+a%(3*inv-inv/2+1))
				continue
			}
			got, err := call(w)
			if err != nil && !typedError(err) {
				t.Fatalf("call %d (op %d): untyped error %v", calls, op, err)
			}
			for v := range n {
				if owned, coupons := w.st.owned[v], w.st.couponTotal(graph.NodeID(v)); int(owned) != coupons {
					t.Fatalf("call %d (op %d): node %d owns %d walks, %d coupons are its", calls, op, v, owned, coupons)
				}
			}
			if fresh {
				ref, refErr := NewWalker(g, seed, w.prm)
				if refErr != nil {
					t.Fatal(refErr)
				}
				want, wantErr := call(ref)
				if fmt.Sprint(err) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
					t.Fatalf("call %d (op %d) after a Reset differs from a fresh walker's:\n got %+v (%v)\nwant %+v (%v)", calls, op, got, err, want, wantErr)
				}
				fresh = false
			}
			if (op == opRegen || op == opRegenMany) && err == nil {
				again, againErr := call(w)
				if againErr != nil || !reflect.DeepEqual(got, again) {
					t.Fatalf("call %d (op %d) run again differs:\n got %+v (%v)\nwant %+v", calls, op, again, againErr, got)
				}
			}
			switch r := got.(type) {
			case *WalkResult:
				if err == nil {
					walks = append(walks, r)
				}
			case *ManyResult:
				if err == nil {
					walks = append(walks, r.Walks...)
				}
			}
		}
	})
}

// typedError reports whether err is one of the errors a fault-free walker
// call may return.
func typedError(err error) bool {
	for _, sentinel := range []error{ErrBadNode, ErrBadLength, ErrGraphTooSmall, ErrBadParams, ErrNoRegen} {
		if errors.Is(err, sentinel) {
			return true
		}
	}
	return false
}
