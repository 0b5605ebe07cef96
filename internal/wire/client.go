package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"distwalk/internal/congest"
)

// DefaultHandshakeTimeout bounds the TCP dial plus the Hello/Welcome
// exchange of every client session (tightened to the dial context's
// deadline when that is sooner), and a server's when ServerConfig leaves
// HandshakeTimeout unset.
const DefaultHandshakeTimeout = 30 * time.Second

// Engine-loss taxonomy. Dial failures and mid-session I/O failures on an
// EngineConn wrap these sentinels, so callers can tell a dead peer from a
// server-side rejection (*RemoteError / ErrEngine) and react — redial,
// retry — instead of string matching.
var (
	// ErrEngineTimeout reports an engine that did not answer within the
	// session's per-exchange deadline or the dial's handshake bound.
	// Every ErrEngineTimeout also matches ErrEngineLost.
	ErrEngineTimeout = errors.New("wire: engine deadline exceeded")
	// ErrEngineLost reports an engine session that is no longer usable —
	// deadline expiry, EOF or connection reset, a protocol violation
	// mid-session — or one that could not be established. The session
	// must be closed and redialed; it cannot carry another run.
	ErrEngineLost = errors.New("wire: engine session lost")
)

// EngineLostError is the typed form of a dead engine session: which
// engine, whether the loss was a deadline expiry, and the underlying
// cause. It matches ErrEngineLost (and ErrEngineTimeout when Timeout)
// under errors.Is; the cause chain stays errors.Is-able too.
type EngineLostError struct {
	Addr    string
	Shard   int
	Timeout bool
	Cause   error
}

func (e *EngineLostError) Error() string {
	kind := "lost"
	if e.Timeout {
		kind = "timed out"
	}
	return fmt.Sprintf("wire: engine %s (shard %d) %s: %v", e.Addr, e.Shard, kind, e.Cause)
}

// Unwrap exposes the sentinel(s) plus the underlying cause.
func (e *EngineLostError) Unwrap() []error {
	errs := make([]error, 0, 3)
	if e.Timeout {
		errs = append(errs, ErrEngineTimeout)
	}
	errs = append(errs, ErrEngineLost)
	if e.Cause != nil {
		errs = append(errs, e.Cause)
	}
	return errs
}

// lost wraps err in the engine-loss taxonomy (an *EngineLostError passes
// through unchanged).
func lost(addr string, shard int, err error) error {
	var le *EngineLostError
	if errors.As(err, &le) {
		return err
	}
	var ne net.Error
	timeout := errors.As(err, &ne) && ne.Timeout()
	return &EngineLostError{Addr: addr, Shard: shard, Timeout: timeout, Cause: err}
}

// countConn counts bytes through a net.Conn (for the per-engine traffic
// stats the Service aggregates and the server metrics distwalkd exports).
type countConn struct {
	net.Conn
	r, w *atomic.Int64
}

func (c countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.r.Add(int64(n))
	return n, err
}

func (c countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.w.Add(int64(n))
	return n, err
}

// EngineStats is a snapshot of an EngineCounters block.
type EngineStats struct {
	// Addr is the engine's dial address; Shard its index in the plan.
	Addr  string `metric:"addr,label"`
	Shard int    `metric:"-"` // the engine label already carries it
	// Runs counts runs begun; Rounds delivery rounds requested.
	Runs   int64 `metric:"runs_total,counter"`
	Rounds int64 `metric:"rounds_total,counter"`
	// MsgsOut counts messages pushed to the engine, MsgsIn messages
	// delivered back; BytesOut/BytesIn the raw wire traffic, handshakes
	// included.
	MsgsOut  int64 `metric:"msgs_total{direction=out},counter"`
	MsgsIn   int64 `metric:"msgs_total{direction=in},counter"`
	BytesOut int64 `metric:"bytes_total{direction=out},counter"`
	BytesIn  int64 `metric:"bytes_total{direction=in},counter"`
}

// EngineCounters is one engine's traffic block. Every session dialed
// with it adds its traffic here as it happens, so one block sums all the
// sessions a client ever held with the engine, replaced ones included.
// Safe for concurrent use.
type EngineCounters struct {
	runs, rounds, msgsOut, msgsIn, bytesOut, bytesIn atomic.Int64
}

// Stats snapshots the block for the engine at addr, plan index shard.
func (c *EngineCounters) Stats(addr string, shard int) EngineStats {
	return EngineStats{
		Addr: addr, Shard: shard,
		Runs: c.runs.Load(), Rounds: c.rounds.Load(),
		MsgsOut: c.msgsOut.Load(), MsgsIn: c.msgsIn.Load(),
		BytesOut: c.bytesOut.Load(), BytesIn: c.bytesIn.Load(),
	}
}

// EngineConn is a client session with one remote shard engine: the TCP
// implementation of congest.RemoteShard. Like the cluster client that
// owns it, a session is single-goroutine — one Service worker holds one
// EngineConn per engine and is its only user — so it holds no lock and
// runs no goroutine of its own.
type EngineConn struct {
	addr  string
	shard int
	conn  net.Conn
	br    *bufio.Reader
	bw    *bufio.Writer
	rbuf  []byte // frame read buffer, reused
	sbuf  []byte // frame encode buffer, reused

	roundTO time.Duration // per-exchange deadline (0 = none)
	broken  bool
	closed  bool

	tally *EngineCounters
}

var _ congest.RemoteShard = (*EngineConn)(nil)

// DialEngine is DialEngineContext without a context or a shared counter
// block: the handshake is bounded by DefaultHandshakeTimeout only, and
// the session counts its traffic in a block of its own.
func DialEngine(addr string, h Hello) (*EngineConn, error) {
	return DialEngineContext(context.Background(), addr, h, nil)
}

// DialEngineContext connects to a distwalkd engine and performs the
// handshake for h, within DefaultHandshakeTimeout or ctx's deadline,
// whichever is sooner. The session starts without a round deadline (see
// SetRoundTimeout). Every failure wraps an *EngineLostError (ErrEngineLost,
// plus ErrEngineTimeout when a deadline expired); a server-side rejection
// stays in its cause chain as a *RemoteError that errors.Is-matches the
// wire sentinel for its code (ErrGeneration, ErrShardIndex, ...). The
// session adds its traffic to tally (a fresh block when nil).
func DialEngineContext(ctx context.Context, addr string, h Hello, tally *EngineCounters) (*EngineConn, error) {
	deadline := time.Now().Add(DefaultHandshakeTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	conn, err := (&net.Dialer{Deadline: deadline}).DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, lost(addr, h.Shard, fmt.Errorf("wire: dial: %w", err))
	}
	if tally == nil {
		tally = new(EngineCounters)
	}
	c := &EngineConn{addr: addr, shard: h.Shard, conn: conn, tally: tally}
	cc := countConn{Conn: conn, r: &tally.bytesIn, w: &tally.bytesOut}
	c.br = bufio.NewReaderSize(cc, 1<<16)
	c.bw = bufio.NewWriterSize(cc, 1<<16)
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	conn.SetDeadline(deadline)
	if err := c.handshake(h); err != nil {
		conn.Close()
		return nil, fmt.Errorf("wire: handshake: %w", err)
	}
	conn.SetDeadline(time.Time{})
	return c, nil
}

// handshake sends h and reads the Welcome, within the dial's deadline (a
// fresh session has no round deadline, so send and expect leave it be).
func (c *EngineConn) handshake(h Hello) error {
	c.sbuf = encodeHello(c.sbuf[:0], h)
	if err := c.send(FrameHello, c.sbuf); err != nil {
		return err
	}
	return c.expect(FrameWelcome, func(payload []byte) error {
		w, err := decodeWelcome(payload)
		if err == nil && (w.Version != Version || w.Shard != h.Shard) {
			err = fmt.Errorf("%w: handshake welcome for version %d shard %d", ErrBadFrame, w.Version, w.Shard)
		}
		return err
	})
}

// send arms the round deadline, writes one frame and flushes it. A
// failure breaks the session.
func (c *EngineConn) send(t FrameType, payload []byte) error {
	c.armRound()
	err := writeFrame(c.bw, t, payload)
	if err == nil {
		err = c.bw.Flush()
	}
	if err != nil {
		return c.fail(err)
	}
	return nil
}

// expect arms the round deadline and reads one reply, which must be a
// frame of type want: a server Error frame becomes a *RemoteError, any
// other type ErrBadFrame. decode reads the payload (valid only during the
// call). A failure, decode's included, breaks the session.
func (c *EngineConn) expect(want FrameType, decode func(payload []byte) error) error {
	c.armRound()
	t, payload, err := readFrame(c.br, c.rbuf)
	if cap(payload) > cap(c.rbuf) {
		c.rbuf = payload[:0]
	}
	switch {
	case err != nil:
	case t == FrameError:
		var re *RemoteError
		if re, err = decodeError(payload); err == nil {
			err = re
		}
	case t != want:
		err = fmt.Errorf("%w: expected frame type %d, got %d", ErrBadFrame, want, t)
	default:
		err = decode(payload)
	}
	if err != nil {
		return c.fail(err)
	}
	return nil
}

// fail marks the session broken — it can never carry another run — and
// wraps err in the engine-loss taxonomy.
func (c *EngineConn) fail(err error) error {
	c.broken = true
	return lost(c.addr, c.shard, err)
}

// armRound applies the per-exchange deadline ahead of the next blocking
// write or read; without one the connection stays as it is (deadline-free
// after the handshake, see SetRoundTimeout).
func (c *EngineConn) armRound() {
	if c.roundTO > 0 {
		c.conn.SetDeadline(time.Now().Add(c.roundTO))
	}
}

// SetRoundTimeout retunes the per-exchange I/O deadline (0 disables).
// The Service arms every session with the request's effective deadline
// before each cluster run.
func (c *EngineConn) SetRoundTimeout(d time.Duration) {
	c.roundTO = max(d, 0)
	if c.roundTO == 0 {
		c.conn.SetDeadline(time.Time{})
	}
}

// Broken reports whether the session has failed and must be redialed.
func (c *EngineConn) Broken() bool { return c.broken }

// Addr reports the engine's dial address; Shard its shard index.
func (c *EngineConn) Addr() string { return c.addr }

// Shard reports the engine's shard index in the cluster plan.
func (c *EngineConn) Shard() int { return c.shard }

// Stats snapshots the session's counter block: its own traffic, or the
// sum over every session sharing the block.
func (c *EngineConn) Stats() EngineStats { return c.tally.Stats(c.addr, c.shard) }

// RunBegin implements congest.RemoteShard. The frame is buffered and
// flushed with the run's first push barrier, saving a round trip.
func (c *EngineConn) RunBegin() error {
	c.tally.runs.Add(1)
	if err := writeFrame(c.bw, FrameRunBegin, nil); err != nil {
		return c.fail(err)
	}
	return nil
}

// SendPushes implements congest.RemoteShard.
func (c *EngineConn) SendPushes(round int, msgs []congest.Message) error {
	c.sbuf = encodePush(c.sbuf[:0], round, msgs)
	c.tally.msgsOut.Add(int64(len(msgs)))
	return c.send(FramePush, c.sbuf)
}

// ReadPushAck implements congest.RemoteShard.
func (c *EngineConn) ReadPushAck() (active int, err error) {
	err = c.expect(FramePushAck, func(payload []byte) (err error) {
		active, err = decodePushAck(payload)
		return err
	})
	return active, err
}

// SendDeliver implements congest.RemoteShard.
func (c *EngineConn) SendDeliver(round int) error {
	c.tally.rounds.Add(1)
	c.sbuf = encodeDeliver(c.sbuf[:0], round)
	return c.send(FrameDeliver, c.sbuf)
}

// ReadBuffer implements congest.RemoteShard.
func (c *EngineConn) ReadBuffer(buf []congest.Message) (out []congest.Message, err error) {
	out = buf
	err = c.expect(FrameBuffer, func(payload []byte) (err error) {
		out, err = decodeBuffer(payload, buf)
		c.tally.msgsIn.Add(int64(len(out) - len(buf)))
		return err
	})
	return out, err
}

// FinishRun implements congest.RemoteShard.
func (c *EngineConn) FinishRun() (res congest.RemoteResult, err error) {
	if err = c.send(FrameRunEnd, nil); err != nil {
		return res, err
	}
	err = c.expect(FrameRunResult, func(payload []byte) (err error) {
		res, err = decodeRunResult(payload)
		return err
	})
	return res, err
}

// Close sends a best-effort Goodbye (unless the session is broken, when
// it just drops the connection) and closes the connection. Idempotent.
func (c *EngineConn) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	if !c.broken {
		c.conn.SetDeadline(time.Now().Add(time.Second))
		if writeFrame(c.bw, FrameGoodbye, nil) == nil {
			c.bw.Flush()
		}
	}
	return c.conn.Close()
}
