package core

import (
	"math"
	"testing"

	"distwalk/internal/congest"
	"distwalk/internal/graph"
)

// Every message of this package's protocols reads back exactly what its
// encoder packed, at the fields' extremes, under its pinned kind and size
// (the goldens' Words counter and every digest depend on both).

const (
	maxNode  = graph.NodeID(math.MaxInt32)
	maxLen   = int32(math.MaxInt32)
	highWalk = int64(math.MaxInt32)<<32 | math.MaxUint32 // owner in the high half, top seq
)

// pointToPoint builds the message a SendTo / SendPort of (kind, words,
// w0, w1) delivers.
func pointToPoint(kind uint16, words int, w0, w1 uint64) *congest.Message {
	m := congest.MakeMessage(3, 4, kind, words, [congest.PayloadWords]uint64{w0, w1})
	return &m
}

// checkShape fails unless m has the historical kind and size.
func checkShape(t *testing.T, name string, m *congest.Message, kind uint16, words int) {
	t.Helper()
	if m.Kind != kind || m.Words() != words {
		t.Fatalf("%s: kind %d, %d words; want kind %d, %d words", name, m.Kind, m.Words(), kind, words)
	}
}

func TestCodecWalkToken(t *testing.T) {
	for _, tk := range []walkToken{
		{walkID: highWalk, remaining: maxLen, total: maxLen},
		{walkID: 0, remaining: 0, total: 1},
		{walkID: int64(7) << 32, remaining: 1, total: maxLen},
	} {
		w0, w1 := tk.encode()
		m := pointToPoint(kindWalkToken, tokenWords, w0, w1)
		if got := readToken(m); got != tk {
			t.Fatalf("walkToken %+v read back as %+v", tk, got)
		}
	}
	if kindWalkToken != 1 || tokenWords != 3 {
		t.Fatalf("walk tokens: kind %d, %d words; want 1, 3", kindWalkToken, tokenWords)
	}
}

func TestCodecPointToPoint(t *testing.T) {
	shapes := []struct {
		name             string
		kind, want       uint16
		words, wantWords int
	}{
		{"regenToken", kindRegenToken, 4, regenWords, 2},
	}
	for _, s := range shapes {
		if s.kind != s.want || s.words != s.wantWords {
			t.Fatalf("%s: kind %d, %d words; want kind %d, %d words", s.name, s.kind, s.words, s.want, s.wantWords)
		}
	}
	for _, x := range []struct {
		walkID int64
		n      int32
	}{{highWalk, maxLen}, {0, 0}, {int64(1) << 32, 1}, {highWalk, math.MinInt32}} {
		rt := regenToken{walkID: x.walkID, pos: x.n}
		if w0, w1 := rt.encode(); readRegenToken(pointToPoint(kindRegenToken, regenWords, w0, w1)) != rt {
			t.Fatalf("regenToken %+v does not round-trip", rt)
		}
	}
}

func TestCodecTreeItems(t *testing.T) {
	for _, owner := range []graph.NodeID{0, maxNode} {
		for _, kind := range []uint16{kindSampleRequest, kindSampleAnnounce} {
			m := ownerMsg(kind, owner)
			checkShape(t, "ownerMsg", &m, kind, 1)
			if graph.NodeID(m.W[0]) != owner || m.W[1]|m.W[2]|m.W[3] != 0 {
				t.Fatalf("ownerMsg(%d) = %v", owner, m.W)
			}
		}
	}
	if kindSampleRequest != 5 || kindSampleAnnounce != 6 {
		t.Fatalf("sample request/announce kinds %d/%d, want 5/6", kindSampleRequest, kindSampleAnnounce)
	}

	for _, r := range []destReport{
		{walkID: highWalk, dest: maxNode, deg: maxLen},
		{walkID: highWalk, dest: maxNode, deg: maxLen, rootSource: true},
		{walkID: 0, dest: graph.None, deg: 0},
		{walkID: 0, dest: graph.None, deg: 0, rootSource: true},
	} {
		m := r.msg()
		checkShape(t, "destReport", &m, 3, 3)
		if got := readDestReport(&m); got != r {
			t.Fatalf("destReport %+v read back as %+v", r, got)
		}
	}

	for _, c := range []sampleCand{
		{count: math.MaxInt64, walkID: highWalk, dest: maxNode, length: maxLen},
		{count: 0, walkID: 0, dest: graph.None, length: 0},
		{count: 1, walkID: int64(5) << 32, dest: 0, length: 1},
	} {
		m := c.msg()
		checkShape(t, "sampleCand", &m, 7, 3)
		if got := readSampleCand(&m); got != c {
			t.Fatalf("sampleCand %+v read back as %+v", c, got)
		}
	}

	for flags := range 4 {
		found, follow := flags&1 != 0, flags&2 != 0
		for _, r := range []sampleResult{
			{owner: maxNode, walkID: highWalk, dest: maxNode, length: maxLen, found: found, follow: follow},
			{owner: 0, walkID: 0, dest: graph.None, length: 0, found: found, follow: follow},
			{owner: graph.None, walkID: 1, dest: 0, length: 1, found: found, follow: follow},
		} {
			m := r.msg()
			checkShape(t, "sampleResult", &m, 8, 3)
			if got := readSampleResult(&m); got != r {
				t.Fatalf("sampleResult %+v read back as %+v", r, got)
			}
		}
	}
}
