package wire

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"distwalk/internal/congest"
)

// Session timing defaults; DialConfig zero values resolve to these.
const (
	// DefaultHandshakeTimeout bounds the TCP dial plus the Hello/Welcome
	// exchange of every client session, and a server's when ServerConfig
	// leaves HandshakeTimeout unset.
	DefaultHandshakeTimeout = 30 * time.Second
	// DefaultHeartbeatTimeout bounds one idle Ping/Pong exchange when
	// neither HeartbeatTimeout nor RoundTimeout is set.
	DefaultHeartbeatTimeout = 10 * time.Second
)

// Engine-loss taxonomy. Mid-session I/O failures on an EngineConn wrap
// these sentinels, so callers can tell a dead peer from a server-side
// rejection (*RemoteError / ErrEngine) and react — reconnect, fail over —
// instead of string matching.
var (
	// ErrEngineTimeout reports an engine that did not answer within the
	// session's per-exchange deadline (round trip or heartbeat). Every
	// ErrEngineTimeout also matches ErrEngineLost.
	ErrEngineTimeout = errors.New("wire: engine deadline exceeded")
	// ErrEngineLost reports an engine session that is no longer usable:
	// deadline expiry, EOF or connection reset, a missed heartbeat, or a
	// protocol violation mid-session. The session must be closed and
	// redialed; it cannot carry another run.
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

// isTimeout reports whether err is a net.Error deadline expiry.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// DialConfig tunes an engine session's failure detection. The zero value
// reproduces a deadline-free, heartbeat-free session (handshake timeout
// aside), which is what DialEngine uses.
type DialConfig struct {
	// RoundTimeout is the per-exchange I/O deadline armed before every
	// Push/Deliver/RunResult round trip: an engine that does not answer
	// within it fails the run with ErrEngineTimeout instead of hanging
	// the client forever. 0 = no deadline. Callers can retune it per run
	// with SetRoundTimeout.
	RoundTimeout time.Duration
	// HeartbeatInterval starts an idle heartbeat on the session: while no
	// run holds the session (see Reserve), the client pings the engine
	// every interval and treats a failed Ping/Pong as a lost engine.
	// 0 = no heartbeat.
	HeartbeatInterval time.Duration
	// HeartbeatTimeout bounds one Ping/Pong exchange (0 = RoundTimeout,
	// or DefaultHeartbeatTimeout if that is unset too).
	HeartbeatTimeout time.Duration
	// OnHeartbeatMiss, if set, is called (from the heartbeat goroutine,
	// at most once per session) when an idle ping fails; the session is
	// already marked broken and its connection closed by then.
	OnHeartbeatMiss func(error)
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
// implementation of congest.RemoteShard. The round cadence is
// single-goroutine like the cluster client that owns it; one Service
// worker holds one EngineConn per engine. The only concurrent party is
// the optional idle heartbeat, excluded from runs by the Reserve/Release
// session lock.
type EngineConn struct {
	addr  string
	shard int
	conn  net.Conn
	br    *bufio.Reader
	bw    *bufio.Writer
	rbuf  []byte // frame read buffer, reused
	sbuf  []byte // frame encode buffer, reused

	// mu is the session lock: the run path holds it from Reserve to
	// Release; the idle heartbeat TryLocks around each ping and backs off
	// whenever a run is in flight.
	mu      sync.Mutex
	roundTO atomic.Int64 // per-exchange deadline, nanoseconds (0 = none)
	hbTO    time.Duration
	nonce   uint64 // heartbeat nonce, under mu
	broken  atomic.Bool
	closed  atomic.Bool
	hbStop  chan struct{}

	stats    EngineStats
	bytesIn  atomic.Int64
	bytesOut atomic.Int64
}

var _ congest.RemoteShard = (*EngineConn)(nil)

// DialEngine connects to a distwalkd engine with the default DialConfig:
// a handshake timeout but no round deadline and no heartbeat (the
// pre-resilience behavior). A server-side rejection surfaces as a
// *RemoteError that errors.Is-matches the wire sentinel for its code
// (ErrGeneration, ErrShardIndex, ...).
func DialEngine(addr string, h Hello) (*EngineConn, error) {
	return DialEngineConfig(addr, h, DialConfig{})
}

// DialEngineConfig connects to a distwalkd engine and performs the
// handshake for h under cfg's timing policy, starting the idle heartbeat
// if configured.
func DialEngineConfig(addr string, h Hello, cfg DialConfig) (*EngineConn, error) {
	conn, err := net.DialTimeout("tcp", addr, DefaultHandshakeTimeout)
	if err != nil {
		return nil, fmt.Errorf("wire: dial %s: %w", addr, err)
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
	conn.SetDeadline(time.Now().Add(DefaultHandshakeTimeout))
	c.sbuf = encodeHello(c.sbuf[:0], h)
	if err := writeFrame(c.bw, FrameHello, c.sbuf); err != nil {
		conn.Close()
		return nil, fmt.Errorf("wire: %s: handshake write: %w", addr, err)
	}
	if err := c.bw.Flush(); err != nil {
		conn.Close()
		return nil, fmt.Errorf("wire: %s: handshake write: %w", addr, err)
	}
	t, payload, err := c.readReply()
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("wire: %s: handshake: %w", addr, err)
	}
	if t != FrameWelcome {
		conn.Close()
		return nil, fmt.Errorf("wire: %s: handshake: %w: unexpected frame type %d", addr, ErrBadFrame, t)
	}
	w, err := decodeWelcome(payload)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("wire: %s: handshake: %w", addr, err)
	}
	if w.Version != Version || w.Shard != h.Shard {
		conn.Close()
		return nil, fmt.Errorf("wire: %s: handshake: %w: welcome for version %d shard %d",
			addr, ErrBadFrame, w.Version, w.Shard)
	}
	conn.SetDeadline(time.Time{})
	c.roundTO.Store(int64(cfg.RoundTimeout))
	c.hbTO = cfg.HeartbeatTimeout
	if cfg.HeartbeatInterval > 0 {
		c.hbStop = make(chan struct{})
		go c.heartbeat(cfg.HeartbeatInterval, cfg.OnHeartbeatMiss)
	}
	return c, nil
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
	c.broken.Store(true)
	var le *EngineLostError
	if errors.As(err, &le) {
		return err
	}
	return &EngineLostError{Addr: c.addr, Shard: c.shard, Timeout: isTimeout(err), Cause: err}
}

// arm applies a per-exchange deadline ahead of the next blocking
// write/read pair; d <= 0 leaves the connection deadline-free.
func (c *EngineConn) arm(d time.Duration) {
	if d > 0 {
		c.conn.SetDeadline(time.Now().Add(d))
	} else {
		c.conn.SetDeadline(time.Time{})
	}
}

func (c *EngineConn) armRound() { c.arm(time.Duration(c.roundTO.Load())) }

// SetRoundTimeout retunes the per-exchange I/O deadline (0 disables).
// Safe to call between exchanges; the Service arms every session with the
// request's effective deadline before each cluster run.
func (c *EngineConn) SetRoundTimeout(d time.Duration) {
	if d < 0 {
		d = 0
	}
	c.roundTO.Store(int64(d))
}

// Reserve takes the session lock for a run, excluding the idle heartbeat
// until Release. The Service brackets every cluster run with these; the
// RemoteShard methods themselves do not lock (error paths may skip
// FinishRun, so the bracket must outlive any single method).
func (c *EngineConn) Reserve() { c.mu.Lock() }

// Release returns the session to idle (heartbeat resumes).
func (c *EngineConn) Release() { c.mu.Unlock() }

// Broken reports whether the session has failed and must be redialed.
func (c *EngineConn) Broken() bool { return c.broken.Load() }

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

// Ping runs one heartbeat exchange: a Ping frame carrying a fresh nonce,
// answered by a Pong echoing it, under the heartbeat deadline. The caller
// must hold the session (Reserve, or be its only user); the idle
// heartbeat goroutine is the normal caller.
func (c *EngineConn) Ping() error {
	to := c.hbTO
	if to <= 0 {
		if rt := time.Duration(c.roundTO.Load()); rt > 0 {
			to = rt
		} else {
			to = DefaultHeartbeatTimeout
		}
	}
	c.arm(to)
	c.nonce++
	n := c.nonce
	c.sbuf = encodePing(c.sbuf[:0], n)
	if err := writeFrame(c.bw, FramePing, c.sbuf); err != nil {
		return c.fail(err)
	}
	if err := c.bw.Flush(); err != nil {
		return c.fail(err)
	}
	t, payload, err := c.readReply()
	if err != nil {
		return c.fail(err)
	}
	if t != FramePong {
		return c.fail(fmt.Errorf("%w: expected pong, got frame type %d", ErrBadFrame, t))
	}
	got, err := decodePing(payload)
	if err != nil {
		return c.fail(err)
	}
	if got != n {
		return c.fail(fmt.Errorf("%w: pong nonce %d, want %d", ErrBadFrame, got, n))
	}
	return nil
}

// heartbeat is the idle liveness loop: every interval, if no run holds
// the session, one Ping/Pong exchange. A run in flight is its own
// liveness signal (its exchanges carry deadlines), so the loop simply
// skips ticks it cannot lock. A failed ping marks the session broken,
// closes the connection and reports the miss once — unless Close already
// raced it, in which case the failure is just the teardown.
func (c *EngineConn) heartbeat(interval time.Duration, onMiss func(error)) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-c.hbStop:
			return
		case <-t.C:
		}
		if !c.mu.TryLock() {
			continue
		}
		if c.broken.Load() || c.closed.Load() {
			c.mu.Unlock()
			return
		}
		err := c.Ping()
		c.mu.Unlock()
		if err != nil {
			if c.closed.Load() {
				return
			}
			c.conn.Close()
			if onMiss != nil {
				onMiss(err)
			}
			return
		}
	}
}

// Close stops the heartbeat, sends a best-effort Goodbye (only when the
// session is idle and healthy — a broken or busy session just drops the
// connection) and closes it. Idempotent and safe concurrently with the
// heartbeat and with a run holding the session: an in-flight exchange
// unblocks with a connection error.
func (c *EngineConn) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	if c.hbStop != nil {
		close(c.hbStop)
	}
	if c.mu.TryLock() {
		if !c.broken.Load() {
			c.arm(time.Second)
			if writeFrame(c.bw, FrameGoodbye, nil) == nil {
				c.bw.Flush()
			}
		}
		c.mu.Unlock()
	}
	return c.conn.Close()
}
