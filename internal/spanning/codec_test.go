package spanning

import (
	"math"
	"testing"

	"distwalk/internal/graph"
)

// The cover check's AND and the delivered tree edges read back exactly
// what was packed, at the fields' extremes, under their historical kinds
// and sizes.
func TestCodecMessages(t *testing.T) {
	for _, b := range []bool{false, true} {
		m := coveredMsg(b)
		if m.Kind != 1 || m.Words() != 1 {
			t.Fatalf("coveredMsg: kind %d, %d words; want kind 1, 1 word", m.Kind, m.Words())
		}
		if got := readCovered(&m); got != b {
			t.Fatalf("coveredMsg(%v) read back as %v", b, got)
		}
	}
	for _, r := range []edgeReport{
		{child: math.MaxInt32, parent: math.MaxInt32 - 1},
		{child: 0, parent: graph.None},
		{child: graph.None, parent: 0},
	} {
		m := r.msg()
		if m.Kind != 2 || m.Words() != 2 {
			t.Fatalf("edgeReport: kind %d, %d words; want kind 2, 2 words", m.Kind, m.Words())
		}
		if got := readEdgeReport(&m); got != r {
			t.Fatalf("edgeReport %+v read back as %+v", r, got)
		}
	}
}
