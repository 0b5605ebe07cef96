package wire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"distwalk/internal/congest"
	"distwalk/internal/graph"
)

// FuzzReadFrame pins the decoder's safety contract: any byte stream —
// truncated, oversized, corrupt, or adversarial — either parses into a
// known frame or fails with a typed error. It must never panic and never
// allocate proportionally to a lying length or count field.
func FuzzReadFrame(f *testing.F) {
	g, err := graph.Torus(4, 4)
	if err != nil {
		f.Fatalf("graph: %v", err)
	}
	seed := func(t FrameType, payload []byte) {
		var b bytes.Buffer
		if err := writeFrame(&b, t, payload); err != nil {
			f.Fatalf("seed frame %d: %v", t, err)
		}
		f.Add(b.Bytes())
	}
	seed(FrameHello, encodeHello(nil, HelloFor(g, 2, 0, 1, 42, testPlan())))
	seed(FrameHello, encodeHello(nil, HelloFor(g, 4, 3, 2, 0, nil)))
	seed(FrameWelcome, encodeWelcome(nil, Welcome{Version: Version, Shard: 1, PID: 99}))
	seed(FrameError, encodeError(nil, CodeGeneration, "generation mismatch"))
	seed(FrameRunBegin, nil)
	seed(FramePush, encodePush(nil, 3, []congest.Message{
		congest.MakeMessage(0, 1, 7, 1, [congest.PayloadWords]uint64{42}),
		congest.MakeMessage(2, 3, 1, 4, [congest.PayloadWords]uint64{1, 2, 3, 4}),
	}))
	seed(FramePushAck, encodePushAck(nil, 12))
	seed(FrameDeliver, encodeDeliver(nil, 4))
	seed(FrameBuffer, encodeBuffer(nil, []congest.Message{
		congest.MakeMessage(1, 0, 7, 1, [congest.PayloadWords]uint64{9}),
	}))
	seed(FrameRunEnd, nil)
	seed(FrameRunResult, encodeRunResult(nil, congest.RemoteResult{
		Res:  congest.Result{Rounds: 5, Messages: 10, Words: 10, MaxQueue: 2},
		Loss: congest.LossRecord{Valid: true, Round: 3, Edge: 7, From: 1, To: 2},
	}))
	// The retired Ping (12) and Pong (13) frames, as a version-2 peer
	// would still send them: well-formed u64 nonces of unknown types.
	seed(12, putU64(nil, 0xdeadbeefcafe))
	seed(13, putU64(nil, 0))
	// Hand-crafted hostile headers: a short retired ping (7 of 8 nonce
	// bytes), inflated length, unknown type, zero body.
	f.Add([]byte{0, 0, 0, 8, 12, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{0x7f, 0xff, 0xff, 0xff, byte(FramePush), 1, 2, 3})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0, 0, 0, 1, 200})

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		var buf []byte
		for i := 0; i < 64; i++ { // bound work per input
			_, _, err := readFrameAndKeep(r, &buf)
			if err == nil {
				continue
			}
			if err == io.EOF {
				return
			}
			if !errors.Is(err, ErrBadFrame) && !errors.Is(err, ErrFrameTooBig) &&
				!errors.Is(err, ErrTruncated) && !errors.Is(err, ErrBadMagic) &&
				!errors.Is(err, ErrVersion) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
	})
}

// readFrameAndKeep is the fuzz body's ReadFrame wrapper, reusing the read
// buffer across frames the way real sessions do.
func readFrameAndKeep(r io.Reader, buf *[]byte) (FrameType, any, error) {
	t, v, err := ReadFrame(r, *buf)
	return t, v, err
}

// FuzzHello drives the server handshake with arbitrary Hello payloads
// over an in-memory pipe: every input must end in a Welcome or a typed
// Error frame within the handshake timeout, and never panic. A fresh
// server per input keeps one input's generation pin from shaping the
// next one's reply.
func FuzzHello(f *testing.F) {
	g, err := graph.Torus(4, 4)
	if err != nil {
		f.Fatalf("graph: %v", err)
	}
	f.Add(encodeHello(nil, HelloFor(g, 2, 0, 1, 1, nil)))
	f.Add(encodeHello(nil, HelloFor(g, 2, 1, 2, 42, testPlan())))
	// TestHandshakeRejections' node count beyond one frame.
	huge := HelloFor(g, 2, 0, 1, 1, nil)
	huge.N, huge.Edges = 1<<28, nil
	f.Add(encodeHello(nil, huge))

	const timeout = 5 * time.Second
	f.Fuzz(func(t *testing.T, payload []byte) {
		client, server := net.Pipe()
		defer client.Close()
		ss := &session{srv: NewServer(ServerConfig{PinShard: -1, HandshakeTimeout: timeout}), conn: server}
		ss.br, ss.bw = bufio.NewReader(server), bufio.NewWriter(server)
		welcomed := make(chan bool, 1)
		go func() {
			defer server.Close()
			welcomed <- ss.handshake()
		}()
		go func() {
			bw := bufio.NewWriter(client)
			if writeFrame(bw, FrameHello, payload) == nil {
				bw.Flush()
			}
		}()
		client.SetDeadline(time.Now().Add(timeout))
		typ, reply, err := readFrame(client, nil)
		if err != nil {
			t.Fatalf("no reply to a %d-byte Hello within %v: %v", len(payload), timeout, err)
		}
		switch typ {
		case FrameWelcome:
			if _, err := decodeWelcome(reply); err != nil || !<-welcomed {
				t.Fatalf("Welcome %v, but the handshake did not succeed", err)
			}
		case FrameError:
			re, err := decodeError(reply)
			if err != nil || len(re.Unwrap()) != 2 || <-welcomed {
				t.Fatalf("Error frame %+v (%v) is not a typed rejection", re, err)
			}
		default:
			t.Fatalf("reply frame type %d, want Welcome or Error", typ)
		}
	})
}
