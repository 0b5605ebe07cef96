package core

import (
	"fmt"

	"distwalk/internal/congest"
	"distwalk/internal/graph"
)

// destReport carries the walk outcome to the source over the BFS tree.
// The destination includes its own degree so the receiver can compute the
// stationary mass π(dest) = deg/2m locally (used by the mixing-time
// estimator, Section 4.2).
type destReport struct {
	walkID int64
	dest   graph.NodeID
	deg    int32
}

func (r destReport) msg() congest.Message {
	return congest.MakeMessage(graph.None, graph.None, kindDestReport, 3,
		[congest.PayloadWords]uint64{uint64(r.walkID), congest.Pack2(int32(r.dest), r.deg)})
}

func readDestReport(m *congest.Message) destReport {
	dest, deg := congest.Unpack2(m.W[1])
	return destReport{walkID: int64(m.W[0]), dest: graph.NodeID(dest), deg: deg}
}

// naiveSegment walks `steps` hops from start by token forwarding (recording
// hops for later regeneration when the trail is kept) and returns the
// destination plus cost: a one-token naiveManyProto.
func (w *Walker) naiveSegment(start graph.NodeID, steps int) (graph.NodeID, int64, congest.Result, error) {
	wid := w.st.newWalk(start, int32(steps))
	p := &naiveManyProto{
		w:       w,
		steps:   []int32{int32(steps)},
		walkIDs: []int64{wid},
		start:   map[int64]int{wid: 0},
		dest:    []graph.NodeID{graph.None},
	}
	res, err := w.walkRun(p)
	if err != nil {
		return graph.None, 0, res, err
	}
	if p.dest[0] == graph.None {
		return graph.None, 0, res, fmt.Errorf("core: naive walk of %d steps from %d did not complete", steps, start)
	}
	return p.dest[0], wid, res, nil
}

// reportToSource sends (walkID, dest) from the destination to the tree
// root over tree edges (depth(dest) rounds). With the tree rooted at the
// walk's source this completes 1-RW-SoD: the source outputs the
// destination's ID.
func (w *Walker) reportToSource(tree *congest.Tree, dest graph.NodeID, walkID int64) (congest.Result, error) {
	reports, res, err := congest.Upcast(w.net, tree, func(u graph.NodeID) []congest.Message {
		if u == dest {
			return []congest.Message{destReport{walkID: walkID, dest: dest, deg: int32(w.g.Degree(dest))}.msg()}
		}
		return nil
	})
	if err != nil {
		return res, err
	}
	if len(reports) != 1 || readDestReport(&reports[0]).dest != dest {
		return res, fmt.Errorf("core: destination report lost (got %d reports)", len(reports))
	}
	return res, nil
}
