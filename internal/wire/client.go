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
// fail over — instead of string matching.
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

// EngineStats is a snapshot of one engine connection's cumulative
// traffic counters.
type EngineStats struct {
	// Addr is the engine's dial address; Shard its index in the plan.
	Addr  string
	Shard int
	// Runs counts runs begun; Rounds delivery rounds requested.
	Runs   int64
	Rounds int64
	// MsgsOut counts messages pushed to the engine, MsgsIn messages
	// delivered back; BytesOut/BytesIn the raw wire traffic.
	MsgsOut  int64
	MsgsIn   int64
	BytesOut int64
	BytesIn  int64
}

// Add accumulates other into s (for aggregating across pooled workers).
func (s *EngineStats) Add(other EngineStats) {
	if s.Addr == "" {
		s.Addr, s.Shard = other.Addr, other.Shard
	}
	s.Runs += other.Runs
	s.Rounds += other.Rounds
	s.MsgsOut += other.MsgsOut
	s.MsgsIn += other.MsgsIn
	s.BytesOut += other.BytesOut
	s.BytesIn += other.BytesIn
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

	stats    EngineStats
	bytesIn  atomic.Int64
	bytesOut atomic.Int64
}

var _ congest.RemoteShard = (*EngineConn)(nil)

// DialEngine is DialEngineContext without a context: the handshake is
// bounded by DefaultHandshakeTimeout only.
func DialEngine(addr string, h Hello) (*EngineConn, error) {
	return DialEngineContext(context.Background(), addr, h)
}

// DialEngineContext connects to a distwalkd engine and performs the
// handshake for h, within DefaultHandshakeTimeout or ctx's deadline,
// whichever is sooner. The session starts without a round deadline (see
// SetRoundTimeout). Every failure is an *EngineLostError (ErrEngineLost,
// plus ErrEngineTimeout when a deadline expired); a server-side rejection
// stays in its cause chain as a *RemoteError that errors.Is-matches the
// wire sentinel for its code (ErrGeneration, ErrShardIndex, ...).
func DialEngineContext(ctx context.Context, addr string, h Hello) (*EngineConn, error) {
	deadline := time.Now().Add(DefaultHandshakeTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	conn, err := (&net.Dialer{Deadline: deadline}).DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, lost(addr, h.Shard, fmt.Errorf("wire: dial: %w", err))
	}
	c := &EngineConn{addr: addr, shard: h.Shard, conn: conn}
	c.stats.Addr = addr
	c.stats.Shard = h.Shard
	cc := countConn{Conn: conn, r: &c.bytesIn, w: &c.bytesOut}
	c.br = bufio.NewReaderSize(cc, 1<<16)
	c.bw = bufio.NewWriterSize(cc, 1<<16)
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	conn.SetDeadline(deadline)
	if err := c.handshake(h); err != nil {
		conn.Close()
		return nil, lost(addr, h.Shard, fmt.Errorf("wire: handshake: %w", err))
	}
	conn.SetDeadline(time.Time{})
	return c, nil
}

// handshake sends h and reads the Welcome.
func (c *EngineConn) handshake(h Hello) error {
	c.sbuf = encodeHello(c.sbuf[:0], h)
	if err := writeFrame(c.bw, FrameHello, c.sbuf); err != nil {
		return err
	}
	if err := c.bw.Flush(); err != nil {
		return err
	}
	t, payload, err := c.readReply()
	if err != nil {
		return err
	}
	if t != FrameWelcome {
		return fmt.Errorf("%w: unexpected frame type %d", ErrBadFrame, t)
	}
	w, err := decodeWelcome(payload)
	if err != nil {
		return err
	}
	if w.Version != Version || w.Shard != h.Shard {
		return fmt.Errorf("%w: welcome for version %d shard %d", ErrBadFrame, w.Version, w.Shard)
	}
	return nil
}

// readReply reads one frame, converting a server Error frame into a
// *RemoteError.
func (c *EngineConn) readReply() (FrameType, []byte, error) {
	t, payload, err := readFrame(c.br, c.rbuf)
	if cap(payload) > cap(c.rbuf) {
		c.rbuf = payload[:0]
	}
	if err != nil {
		return t, nil, err
	}
	if t == FrameError {
		re, derr := decodeError(payload)
		if derr != nil {
			return t, nil, derr
		}
		return t, nil, re
	}
	return t, payload, nil
}

// fail marks the session broken — it can never carry another run — and
// wraps err in the engine-loss taxonomy.
func (c *EngineConn) fail(err error) error {
	c.broken = true
	return lost(c.addr, c.shard, err)
}

// armRound applies the per-exchange deadline ahead of the next blocking
// write/read pair; without one the connection stays deadline-free.
func (c *EngineConn) armRound() {
	if c.roundTO > 0 {
		c.conn.SetDeadline(time.Now().Add(c.roundTO))
	} else {
		c.conn.SetDeadline(time.Time{})
	}
}

// SetRoundTimeout retunes the per-exchange I/O deadline (0 disables).
// The Service arms every session with the request's effective deadline
// before each cluster run.
func (c *EngineConn) SetRoundTimeout(d time.Duration) { c.roundTO = max(d, 0) }

// Broken reports whether the session has failed and must be redialed.
func (c *EngineConn) Broken() bool { return c.broken }

// Addr reports the engine's dial address; Shard its shard index.
func (c *EngineConn) Addr() string { return c.addr }

// Shard reports the engine's shard index in the cluster plan.
func (c *EngineConn) Shard() int { return c.shard }

// Stats snapshots the connection's cumulative traffic counters.
func (c *EngineConn) Stats() EngineStats {
	s := c.stats
	s.BytesIn = c.bytesIn.Load()
	s.BytesOut = c.bytesOut.Load()
	return s
}

// RunBegin implements congest.RemoteShard. The frame is buffered and
// flushed with the run's first push barrier, saving a round trip.
func (c *EngineConn) RunBegin() error {
	c.stats.Runs++
	if err := writeFrame(c.bw, FrameRunBegin, nil); err != nil {
		return c.fail(err)
	}
	return nil
}

// SendPushes implements congest.RemoteShard.
func (c *EngineConn) SendPushes(round int, msgs []congest.Message) error {
	c.armRound()
	c.sbuf = encodePush(c.sbuf[:0], round, msgs)
	c.stats.MsgsOut += int64(len(msgs))
	if err := writeFrame(c.bw, FramePush, c.sbuf); err != nil {
		return c.fail(err)
	}
	if err := c.bw.Flush(); err != nil {
		return c.fail(err)
	}
	return nil
}

// ReadPushAck implements congest.RemoteShard.
func (c *EngineConn) ReadPushAck() (int, error) {
	c.armRound()
	t, payload, err := c.readReply()
	if err != nil {
		return 0, c.fail(err)
	}
	if t != FramePushAck {
		return 0, c.fail(fmt.Errorf("%w: expected push-ack, got frame type %d", ErrBadFrame, t))
	}
	n, err := decodePushAck(payload)
	if err != nil {
		return 0, c.fail(err)
	}
	return n, nil
}

// SendDeliver implements congest.RemoteShard.
func (c *EngineConn) SendDeliver(round int) error {
	c.armRound()
	c.stats.Rounds++
	c.sbuf = encodeDeliver(c.sbuf[:0], round)
	if err := writeFrame(c.bw, FrameDeliver, c.sbuf); err != nil {
		return c.fail(err)
	}
	if err := c.bw.Flush(); err != nil {
		return c.fail(err)
	}
	return nil
}

// ReadBuffer implements congest.RemoteShard.
func (c *EngineConn) ReadBuffer(buf []congest.Message) ([]congest.Message, error) {
	c.armRound()
	t, payload, err := c.readReply()
	if err != nil {
		return buf, c.fail(err)
	}
	if t != FrameBuffer {
		return buf, c.fail(fmt.Errorf("%w: expected buffer, got frame type %d", ErrBadFrame, t))
	}
	out, err := decodeBuffer(payload, buf)
	c.stats.MsgsIn += int64(len(out) - len(buf))
	if err != nil {
		return out, c.fail(err)
	}
	return out, nil
}

// FinishRun implements congest.RemoteShard.
func (c *EngineConn) FinishRun() (congest.RemoteResult, error) {
	c.armRound()
	if err := writeFrame(c.bw, FrameRunEnd, nil); err != nil {
		return congest.RemoteResult{}, c.fail(err)
	}
	if err := c.bw.Flush(); err != nil {
		return congest.RemoteResult{}, c.fail(err)
	}
	t, payload, err := c.readReply()
	if err != nil {
		return congest.RemoteResult{}, c.fail(err)
	}
	if t != FrameRunResult {
		return congest.RemoteResult{}, c.fail(fmt.Errorf("%w: expected run-result, got frame type %d", ErrBadFrame, t))
	}
	res, err := decodeRunResult(payload)
	if err != nil {
		return congest.RemoteResult{}, c.fail(err)
	}
	return res, nil
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
