package wire

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"distwalk/internal/congest"
	"distwalk/internal/fault"
	"distwalk/internal/graph"
)

func testGraph(t *testing.T) *graph.G {
	t.Helper()
	g, err := graph.Torus(4, 4)
	if err != nil {
		t.Fatalf("torus: %v", err)
	}
	return g
}

func testPlan() *fault.Plan {
	return &fault.Plan{
		Seed:     77,
		DropProb: 0.01,
		Crashes:  []fault.Crash{{Node: 11, Round: 6}},
		Churn:    []fault.Churn{{Node: 3, From: 2, To: 9}},
		LinkDrops: []fault.LinkDrop{
			{From: 1, To: 2, Prob: 0.5},
		},
		LinkDelays: []fault.LinkDelay{
			{From: 9, To: 10, Rounds: 3},
			{From: 7, To: 8, Rounds: 2},
		},
	}
}

func testMsgs() []congest.Message {
	return []congest.Message{
		congest.MakeMessage(0, 1, 7, 1, [congest.PayloadWords]uint64{42}),
		congest.MakeMessage(3, 2, 9, 4, [congest.PayloadWords]uint64{1, 2, 3, 1<<64 - 1}),
		congest.MakeMessage(15, 14, 0, 2, [congest.PayloadWords]uint64{0, 5, 0, 0}),
	}
}

func TestHelloRoundTrip(t *testing.T) {
	g := testGraph(t)
	for name, plan := range map[string]*fault.Plan{"plan": testPlan(), "no-plan": nil} {
		t.Run(name, func(t *testing.T) {
			h := HelloFor(g, 3, 1, 2, 12345, plan)
			got, err := decodeHello(encodeHello(nil, h))
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !reflect.DeepEqual(got, h) {
				t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, h)
			}
		})
	}
}

func TestHelloRejectsBadMagicAndVersion(t *testing.T) {
	h := HelloFor(testGraph(t), 2, 0, 1, 1, nil)
	b := encodeHello(nil, h)

	bad := append([]byte(nil), b...)
	bad[0] ^= 0xff
	if _, err := decodeHello(bad); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("corrupt magic: got %v, want ErrBadMagic", err)
	}

	bad = append([]byte(nil), b...)
	bad[4] ^= 0xff // version is the u16 after the magic
	if _, err := decodeHello(bad); !errors.Is(err, ErrVersion) {
		t.Fatalf("corrupt version: got %v, want ErrVersion", err)
	}

	// A version-2 client (the one that still heartbeats) fails here, at
	// the handshake, not on its first idle ping.
	bad = append([]byte(nil), b...)
	bad[4], bad[5] = 2, 0
	if _, err := decodeHello(bad); !errors.Is(err, ErrVersion) {
		t.Fatalf("version 2: got %v, want ErrVersion", err)
	}
}

func TestHelloRejectsInflatedCounts(t *testing.T) {
	h := HelloFor(testGraph(t), 2, 0, 1, 1, testPlan())
	b := encodeHello(nil, h)
	// The edge count sits right after magic+version+seed+digest+gen+n.
	const edgeCountOff = 4 + 2 + 8 + 8 + 8 + 4
	bad := append([]byte(nil), b...)
	bad[edgeCountOff] = 0xff
	bad[edgeCountOff+1] = 0xff
	bad[edgeCountOff+2] = 0xff
	bad[edgeCountOff+3] = 0x7f
	if _, err := decodeHello(bad); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("inflated edge count: got %v, want ErrBadFrame", err)
	}
	// Truncating anywhere must fail typed, never panic or over-allocate.
	for cut := 0; cut < len(b); cut += 7 {
		if _, err := decodeHello(b[:cut]); err == nil {
			t.Fatalf("decode of %d-byte prefix succeeded", cut)
		}
	}
}

func TestWelcomeRoundTrip(t *testing.T) {
	w := Welcome{Version: Version, Shard: 3, PID: 4242}
	got, err := decodeWelcome(encodeWelcome(nil, w))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got != w {
		t.Fatalf("round trip mismatch: got %+v want %+v", got, w)
	}
	if _, err := decodeWelcome(encodeWelcome(nil, w)[:5]); err == nil {
		t.Fatal("truncated welcome decoded")
	}
}

func TestErrorRoundTrip(t *testing.T) {
	re, err := decodeError(encodeError(nil, CodeGeneration, "nope"))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if re.Code != CodeGeneration || re.Msg != "nope" {
		t.Fatalf("round trip mismatch: %+v", re)
	}
	if !errors.Is(re, ErrGeneration) {
		t.Fatal("RemoteError does not unwrap to its sentinel")
	}

	// Oversized messages are clipped at encode time, not rejected.
	long := strings.Repeat("x", 1<<13)
	re, err = decodeError(encodeError(nil, CodeInternal, long))
	if err != nil {
		t.Fatalf("decode clipped: %v", err)
	}
	if len(re.Msg) != 1<<12 {
		t.Fatalf("clipped message length %d, want %d", len(re.Msg), 1<<12)
	}

	// A length field pointing past the payload is typed.
	bad := encodeError(nil, CodeInternal, "hi")
	bad[2] = 0xff
	if _, err := decodeError(bad); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("inflated message length: got %v, want ErrBadFrame", err)
	}
}

func TestRemoteErrorUnwrapTaxonomy(t *testing.T) {
	cases := map[uint16]error{
		CodeBadMagic:     ErrBadMagic,
		CodeVersion:      ErrVersion,
		CodeGeneration:   ErrGeneration,
		CodeShardIndex:   ErrShardIndex,
		CodeBadPlan:      ErrBadPlan,
		CodeShuttingDown: ErrShuttingDown,
		CodeBadFrame:     ErrBadFrame,
		CodeInternal:     ErrEngine,
		999:              ErrEngine,
	}
	for code, want := range cases {
		if re := (&RemoteError{Code: code, Msg: "x"}); !errors.Is(re, want) {
			t.Errorf("code %d does not unwrap to %v", code, want)
		}
	}
}

func TestPushRoundTrip(t *testing.T) {
	msgs := testMsgs()
	round, got, err := decodePush(encodePush(nil, 17, msgs), nil)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if round != 17 || !reflect.DeepEqual(got, msgs) {
		t.Fatalf("round trip mismatch: round %d msgs %+v", round, got)
	}

	// Empty pushes (the round barrier with no sends) round-trip too.
	round, got, err = decodePush(encodePush(nil, 3, nil), nil)
	if err != nil || round != 3 || len(got) != 0 {
		t.Fatalf("empty push: round %d msgs %v err %v", round, got, err)
	}

	// Inflated count fails typed before allocating.
	bad := encodePush(nil, 1, msgs)
	bad[4], bad[5], bad[6], bad[7] = 0xff, 0xff, 0xff, 0x7f
	if _, _, err := decodePush(bad, nil); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("inflated push count: got %v, want ErrBadFrame", err)
	}
}

func TestBufferRoundTrip(t *testing.T) {
	msgs := testMsgs()
	got, err := decodeBuffer(encodeBuffer(nil, msgs), nil)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, msgs) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	// decodeBuffer appends to its destination slice.
	pre := []congest.Message{congest.MakeMessage(5, 4, 1, 1, [congest.PayloadWords]uint64{})}
	got, err = decodeBuffer(encodeBuffer(nil, msgs), pre)
	if err != nil || len(got) != len(pre)+len(msgs) {
		t.Fatalf("append decode: len %d err %v", len(got), err)
	}
}

func TestScalarFramesRoundTrip(t *testing.T) {
	if a, err := decodePushAck(encodePushAck(nil, 12345)); err != nil || a != 12345 {
		t.Fatalf("push-ack: %d %v", a, err)
	}
	if r, err := decodeDeliver(encodeDeliver(nil, 678)); err != nil || r != 678 {
		t.Fatalf("deliver: %d %v", r, err)
	}
	if _, err := decodePushAck([]byte{1, 2}); err == nil {
		t.Fatal("short push-ack decoded")
	}
	if _, err := decodeDeliver([]byte{1, 2, 3, 4, 5}); !errors.Is(err, ErrBadFrame) {
		t.Fatal("trailing bytes in deliver accepted")
	}
}

func TestRunResultRoundTrip(t *testing.T) {
	cases := map[string]congest.RemoteResult{
		"clean": {
			Res: congest.Result{Rounds: 9, Messages: 100, Words: 220, MaxQueue: 3},
		},
		"faulty": {
			Res: congest.Result{
				Rounds: 40, Messages: 7, Words: 7, MaxQueue: 1,
				Faults: congest.FaultStats{Dropped: 3, LinkDropped: 2, Delayed: 5, Crashed: 1},
			},
			Loss: congest.LossRecord{Valid: true, Link: true, Round: 12, Edge: 34, From: 1, To: 2},
		},
	}
	for name, rr := range cases {
		t.Run(name, func(t *testing.T) {
			got, err := decodeRunResult(encodeRunResult(nil, rr))
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if got != rr {
				t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, rr)
			}
		})
	}
}

func TestGraphDigest(t *testing.T) {
	g1 := testGraph(t)
	g2 := testGraph(t)
	if GraphDigest(g1) != GraphDigest(g2) {
		t.Fatal("identical topologies digest differently")
	}
	g3, _ := graph.Torus(4, 4)
	if err := g3.AddWeightedEdge(0, 5, 2.5); err != nil {
		t.Fatalf("add edge: %v", err)
	}
	if GraphDigest(g1) == GraphDigest(g3) {
		t.Fatal("extra edge not reflected in digest")
	}
	g4 := graph.New(16)
	for _, e := range g1.Edges() {
		w := e.W
		if e.U == 0 {
			w *= 2 // same topology, one weight changed
		}
		if err := g4.AddWeightedEdge(e.U, e.V, w); err != nil {
			t.Fatalf("add edge: %v", err)
		}
	}
	if GraphDigest(g1) == GraphDigest(g4) {
		t.Fatal("weight change not reflected in digest")
	}
}

// TestReadFrameRoundTrips drives the exported frame reader over one valid
// encoding of every frame type.
func TestReadFrameRoundTrips(t *testing.T) {
	g := testGraph(t)
	frames := []struct {
		t       FrameType
		payload []byte
	}{
		{FrameHello, encodeHello(nil, HelloFor(g, 2, 1, 1, 9, testPlan()))},
		{FrameWelcome, encodeWelcome(nil, Welcome{Version: Version, Shard: 1, PID: 7})},
		{FrameError, encodeError(nil, CodeShardIndex, "bad shard")},
		{FrameRunBegin, nil},
		{FramePush, encodePush(nil, 4, testMsgs())},
		{FramePushAck, encodePushAck(nil, 11)},
		{FrameDeliver, encodeDeliver(nil, 5)},
		{FrameBuffer, encodeBuffer(nil, testMsgs())},
		{FrameRunEnd, nil},
		{FrameRunResult, encodeRunResult(nil, congest.RemoteResult{Res: congest.Result{Rounds: 2}})},
		{FrameGoodbye, nil},
	}
	var stream bytes.Buffer
	for _, f := range frames {
		if err := writeFrame(&stream, f.t, f.payload); err != nil {
			t.Fatalf("write frame %d: %v", f.t, err)
		}
	}
	r := bytes.NewReader(stream.Bytes())
	var buf []byte
	for _, f := range frames {
		ft, v, err := ReadFrame(r, buf)
		if err != nil {
			t.Fatalf("read frame %d: %v", f.t, err)
		}
		if ft != f.t {
			t.Fatalf("frame type %d, want %d", ft, f.t)
		}
		_ = v
	}
	if _, _, err := ReadFrame(r, buf); err != io.EOF {
		t.Fatalf("stream end: got %v, want io.EOF", err)
	}
}

func TestReadFrameErrors(t *testing.T) {
	read := func(b []byte) error {
		_, _, err := ReadFrame(bytes.NewReader(b), nil)
		return err
	}
	hdr := func(body uint32, t FrameType) []byte {
		return []byte{byte(body >> 24), byte(body >> 16), byte(body >> 8), byte(body), byte(t)}
	}

	if err := read(hdr(0, 0)[:4]); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("zero-length body: %v", err)
	}
	if err := read(hdr(MaxFrame+1, FramePush)); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("oversized body: %v", err)
	}
	if err := read([]byte{0, 0}); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short header: %v", err)
	}
	if err := read(hdr(100, FramePush)); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated body: %v", err)
	}
	// A stream claiming a huge (but legal) frame and delivering nothing
	// must fail truncated without committing to the full allocation.
	if err := read(hdr(MaxFrame, FramePush)); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated max frame: %v", err)
	}
	if err := read(hdr(1, 200)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("unknown frame type: %v", err)
	}
	// The retired Ping (12) and Pong (13) frames are unknown types now.
	for _, ft := range []FrameType{12, 13} {
		if err := read(append(hdr(9, ft), make([]byte, 8)...)); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("retired frame type %d: %v", ft, err)
		}
	}
	if err := read(append(hdr(2, FrameRunBegin), 0xaa)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("payload on empty frame: %v", err)
	}

	var huge bytes.Buffer
	if err := writeFrame(&huge, FramePush, make([]byte, MaxFrame)); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("writer accepted oversized frame: %v", err)
	}
}
