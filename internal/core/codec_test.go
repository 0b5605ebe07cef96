package core

import (
	"math"
	"testing"

	"distwalk/internal/congest"
	"distwalk/internal/graph"
)

// Every message of this package's protocols reads back exactly what its
// encoder packed, at the fields' extremes, under the kind and size it has
// always had (the goldens' Words counter and every digest depend on both).

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
	for _, kind := range []uint16{kindWalkToken, kindNaiveToken} {
		for _, tk := range []walkToken{
			{walkID: highWalk, remaining: maxLen, total: maxLen},
			{walkID: 0, remaining: 0, total: 1},
			{walkID: int64(7) << 32, remaining: 1, total: maxLen},
		} {
			w0, w1 := tk.encode()
			m := pointToPoint(kind, tokenWords, w0, w1)
			if got := readToken(m); got != tk {
				t.Fatalf("walkToken %+v read back as %+v", tk, got)
			}
		}
	}
	if kindWalkToken != 1 || kindNaiveToken != 2 || tokenWords != 3 {
		t.Fatalf("walk tokens: kinds %d/%d, %d words; want 1/2, 3", kindWalkToken, kindNaiveToken, tokenWords)
	}
}

func TestCodecPointToPoint(t *testing.T) {
	shapes := []struct {
		name             string
		kind, want       uint16
		words, wantWords int
	}{
		{"regenToken", kindRegenToken, 4, regenWords, 2},
		{"gmwMsg", kindGMWMsg, 9, gmwMsgWords, 3},
		{"gmwQuery", kindGMWQuery, 10, gmwQueryWords, 2},
		{"gmwReply", kindGMWReply, 11, gmwReplyWords, 3},
		{"gmwClaim", kindGMWClaim, 12, gmwClaimWords, 3},
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
		gm := gmwMsg{batch: x.walkID, count: x.n, steps: maxLen - x.n}
		if w0, w1 := gm.encode(); readGMWMsg(pointToPoint(kindGMWMsg, gmwMsgWords, w0, w1)) != gm {
			t.Fatalf("gmwMsg %+v does not round-trip", gm)
		}
		q := gmwQuery{batch: x.walkID, step: x.n}
		if w0, w1 := q.encode(); readGMWQuery(pointToPoint(kindGMWQuery, gmwQueryWords, w0, w1)) != q {
			t.Fatalf("gmwQuery %+v does not round-trip", q)
		}
		r := gmwReply{batch: x.walkID, step: x.n, count: maxLen}
		if w0, w1 := r.encode(); readGMWReply(pointToPoint(kindGMWReply, gmwReplyWords, w0, w1)) != r {
			t.Fatalf("gmwReply %+v does not round-trip", r)
		}
		c := gmwClaim{batch: x.walkID, step: maxLen, pos: x.n}
		if w0, w1 := c.encode(); readGMWClaim(pointToPoint(kindGMWClaim, gmwClaimWords, w0, w1)) != c {
			t.Fatalf("gmwClaim %+v does not round-trip", c)
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
		{walkID: 0, dest: graph.None, deg: 0},
	} {
		m := r.msg()
		checkShape(t, "destReport", &m, 3, 3)
		if got := readDestReport(&m); got != r {
			t.Fatalf("destReport %+v read back as %+v", r, got)
		}
	}

	for _, refill := range []bool{false, true} {
		for _, c := range []sampleCand{
			{count: math.MaxInt64, walkID: highWalk, dest: maxNode, length: maxLen, refill: refill, batch: highWalk},
			{count: 0, walkID: 0, dest: graph.None, length: 0, refill: refill, batch: 0},
			{count: 1, walkID: int64(5) << 32, dest: 0, length: 1, refill: refill, batch: -1},
		} {
			m := c.msg()
			checkShape(t, "sampleCand", &m, 7, 4)
			if got := readSampleCand(&m); got != c {
				t.Fatalf("sampleCand %+v read back as %+v", c, got)
			}
		}
	}

	for _, found := range []bool{false, true} {
		for _, refill := range []bool{false, true} {
			for _, r := range []sampleResult{
				{owner: maxNode, walkID: highWalk, dest: maxNode, length: maxLen, found: found, refill: refill, batch: highWalk},
				{owner: 0, walkID: 0, dest: graph.None, length: 0, found: found, refill: refill, batch: 0},
				{owner: graph.None, walkID: 1, dest: 0, length: 1, found: found, refill: refill, batch: -1},
			} {
				m := r.msg()
				checkShape(t, "sampleResult", &m, 8, 4)
				if got := readSampleResult(&m); got != r {
					t.Fatalf("sampleResult %+v read back as %+v", r, got)
				}
			}
		}
	}
}
