package wire

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"distwalk/internal/congest"
	"distwalk/internal/graph"
)

// The resilience suite pins the failure-detection layer in isolation:
// per-exchange deadlines, the context-bounded dial and the loss taxonomy.
// The chaos suite at the repo root covers the same machinery end to end
// against real daemon processes.

// fakeEngine accepts sessions and then follows mode: "mute" reads the
// Hello and never answers it (an engine hung before the handshake);
// otherwise it answers the handshake verbatim, after which "silent" keeps
// reading frames but never replies (a hung engine) and "vanish" closes
// (a dying engine).
func fakeEngine(t *testing.T, mode string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				br := bufio.NewReader(conn)
				bw := bufio.NewWriter(conn)
				_, payload, err := readFrame(br, nil)
				if err != nil {
					return
				}
				if mode == "mute" {
					io.Copy(io.Discard, br)
					return
				}
				h, err := decodeHello(payload)
				if err != nil {
					return
				}
				sb := encodeWelcome(nil, Welcome{Version: Version, Shard: h.Shard, PID: 1})
				if writeFrame(bw, FrameWelcome, sb) != nil || bw.Flush() != nil {
					return
				}
				if mode == "silent" {
					io.Copy(io.Discard, br)
				}
			}(conn)
		}
	}()
	return ln.Addr().String()
}

func testHello(t *testing.T) Hello {
	t.Helper()
	g, err := graph.Torus(4, 4)
	if err != nil {
		t.Fatalf("torus: %v", err)
	}
	return HelloFor(g, 1, 0, 1, 42, nil)
}

// TestRoundDeadlineTimesOut pins the headline fix: a hung engine fails
// the exchange with ErrEngineTimeout within the round deadline instead of
// blocking forever.
func TestRoundDeadlineTimesOut(t *testing.T) {
	addr := fakeEngine(t, "silent")
	c, err := DialEngine(addr, testHello(t))
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	c.SetRoundTimeout(150 * time.Millisecond)
	if err := c.RunBegin(); err != nil {
		t.Fatalf("run begin: %v", err)
	}
	if err := c.SendPushes(0, nil); err != nil {
		t.Fatalf("push: %v", err)
	}
	start := time.Now()
	_, err = c.ReadPushAck()
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("push ack from a silent engine succeeded")
	}
	if !errors.Is(err, ErrEngineTimeout) || !errors.Is(err, ErrEngineLost) {
		t.Fatalf("err = %v, want ErrEngineTimeout (and ErrEngineLost)", err)
	}
	var le *EngineLostError
	if !errors.As(err, &le) || !le.Timeout || le.Addr != addr {
		t.Fatalf("err = %#v, want *EngineLostError{Timeout: true, Addr: %s}", err, addr)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("timeout took %v, want ~150ms", elapsed)
	}
	if !c.Broken() {
		t.Fatal("timed-out session not marked broken")
	}
}

// TestDialContextBounded: an engine that accepts the connection but never
// answers the Hello holds the dial only until the context's deadline, and
// the failure is a typed timeout loss; a refused dial is a plain loss.
func TestDialContextBounded(t *testing.T) {
	addr := fakeEngine(t, "mute")
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := DialEngineContext(ctx, addr, testHello(t), nil)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("dial against a mute engine took %v, want ~200ms", elapsed)
	}
	var le *EngineLostError
	if !errors.As(err, &le) || !le.Timeout || !errors.Is(err, ErrEngineTimeout) {
		t.Fatalf("err = %v, want a timed-out *EngineLostError", err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	dead := ln.Addr().String()
	ln.Close()
	_, err = DialEngine(dead, testHello(t))
	if !errors.Is(err, ErrEngineLost) || errors.Is(err, ErrEngineTimeout) {
		t.Fatalf("refused dial: err = %v, want ErrEngineLost without ErrEngineTimeout", err)
	}
}

// TestEngineLostOnEOF pins the taxonomy for a dying engine: connection
// gone is ErrEngineLost but NOT ErrEngineTimeout.
func TestEngineLostOnEOF(t *testing.T) {
	addr := fakeEngine(t, "vanish")
	c, err := DialEngine(addr, testHello(t))
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	c.SetRoundTimeout(time.Second)
	if err := c.RunBegin(); err != nil {
		t.Fatalf("run begin: %v", err)
	}
	// The write may land in kernel buffers; the read must surface the loss.
	c.SendPushes(0, nil)
	_, err = c.ReadPushAck()
	if err == nil {
		t.Fatal("push ack from a closed engine succeeded")
	}
	if !errors.Is(err, ErrEngineLost) {
		t.Fatalf("err = %v, want ErrEngineLost", err)
	}
	if errors.Is(err, ErrEngineTimeout) {
		t.Fatalf("EOF classified as timeout: %v", err)
	}
	if !c.Broken() {
		t.Fatal("lost session not marked broken")
	}
}

// TestEngineLostErrorUnwrap pins the multi-unwrap contract the service
// layer depends on: timeout losses match both sentinels, plain losses
// only ErrEngineLost, and the cause chain stays visible.
func TestEngineLostErrorUnwrap(t *testing.T) {
	cause := errors.New("boom")
	to := &EngineLostError{Addr: "x", Shard: 1, Timeout: true, Cause: cause}
	if !errors.Is(to, ErrEngineTimeout) || !errors.Is(to, ErrEngineLost) || !errors.Is(to, cause) {
		t.Fatalf("timeout loss unwrap broken: %v", to)
	}
	plain := &EngineLostError{Addr: "x", Shard: 1, Cause: cause}
	if errors.Is(plain, ErrEngineTimeout) {
		t.Fatalf("plain loss matches ErrEngineTimeout: %v", plain)
	}
	if !errors.Is(plain, ErrEngineLost) || !errors.Is(plain, cause) {
		t.Fatalf("plain loss unwrap broken: %v", plain)
	}
	// Losses are remote-shard failures to congest and therefore
	// ErrClusterEngine to the public surface.
	wrapped := congestRemoteFail(plain)
	if !errors.Is(wrapped, congest.ErrRemoteShard) || !errors.Is(wrapped, ErrEngineLost) {
		t.Fatalf("service-layer wrap broken: %v", wrapped)
	}
}

// congestRemoteFail mirrors congest's remoteFail wrapping, keeping the
// cross-package taxonomy checked here.
func congestRemoteFail(err error) error {
	return errors.Join(congest.ErrRemoteShard, err)
}
