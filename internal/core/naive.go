package core

import (
	"distwalk/internal/congest"
	"distwalk/internal/graph"
)

// destReport carries the walk outcome to the source over the BFS tree.
// The destination includes its own degree so the receiver can compute the
// stationary mass π(dest) = deg/2m locally (used by the mixing-time
// estimator, Section 4.2). rootSource tells the tree root that the walk
// started at the root itself, so notifyAll floods the report no further.
type destReport struct {
	walkID     int64
	dest       graph.NodeID
	deg        int32
	rootSource bool
}

func (r destReport) msg() congest.Message {
	// deg is a degree (non-negative int32), so its top packed bit is free
	// to carry the rootSource flag.
	w1 := congest.Pack2(int32(r.dest), r.deg)
	if r.rootSource {
		w1 |= 1 << 63
	}
	return congest.MakeMessage(graph.None, graph.None, kindDestReport, 3,
		[congest.PayloadWords]uint64{uint64(r.walkID), w1})
}

func readDestReport(m *congest.Message) destReport {
	dest, deg := congest.Unpack2(m.W[1] &^ (1 << 63))
	return destReport{walkID: int64(m.W[0]), dest: graph.NodeID(dest), deg: deg, rootSource: m.W[1]>>63 != 0}
}
