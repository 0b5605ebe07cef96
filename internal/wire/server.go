package wire

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"distwalk/internal/congest"
	"distwalk/internal/graph"
	"distwalk/internal/metrics"
)

// Server is the distwalkd session host: it accepts engine sessions, runs
// the handshake, and drives one congest.ShardEngine per connection
// through the RunBegin/Push/Deliver/RunEnd state machine. Sessions are
// independent: each builds its engine from the topology its own Hello
// ships, so one server may serve different graphs to different sessions
// at once, and each client worker holds its own session per engine,
// exactly as each pooled worker holds its own Network in-process.
type Server struct {
	cfg ServerConfig
	m   Metrics

	mu       sync.Mutex
	ln       net.Listener
	sessions map[*session]struct{}
	closing  bool

	wg sync.WaitGroup
}

// ServerConfig configures a Server.
type ServerConfig struct {
	// PinShard restricts the server to one shard index (-1 = serve any);
	// a Hello for a different shard is rejected with CodeShardIndex.
	PinShard int
	// HandshakeTimeout bounds the Hello/Welcome exchange
	// (0 = DefaultHandshakeTimeout).
	HandshakeTimeout time.Duration
}

// Metrics is the server's cumulative counter set. distwalkd renders it
// as the "distwalkd" expvar (JSON) and at /metrics (Prometheus text).
type Metrics struct {
	Sessions       metrics.Int64 `json:"sessions" metric:"distwalkd_sessions_total,counter"`              // sessions accepted
	ActiveSessions metrics.Int64 `json:"active_sessions" metric:"distwalkd_active_sessions,gauge"`        // sessions currently open
	Runs           metrics.Int64 `json:"runs" metric:"distwalkd_runs_total,counter"`                      // engine runs begun
	Rounds         metrics.Int64 `json:"rounds" metric:"distwalkd_rounds_total,counter"`                  // delivery rounds served
	MsgsIn         metrics.Int64 `json:"msgs_in" metric:"distwalkd_msgs_total{direction=in},counter"`     // messages pushed by clients
	MsgsOut        metrics.Int64 `json:"msgs_out" metric:"distwalkd_msgs_total{direction=out},counter"`   // messages delivered to clients
	BytesIn        metrics.Int64 `json:"bytes_in" metric:"distwalkd_bytes_total{direction=in},counter"`   // raw bytes read
	BytesOut       metrics.Int64 `json:"bytes_out" metric:"distwalkd_bytes_total{direction=out},counter"` // raw bytes written
	Rejects        metrics.Int64 `json:"rejects" metric:"distwalkd_rejects_total,counter"`                // error frames sent
}

// NewServer builds a session host.
func NewServer(cfg ServerConfig) *Server {
	return &Server{cfg: cfg, sessions: make(map[*session]struct{})}
}

// Metrics returns the server's counter set.
func (s *Server) Metrics() *Metrics { return &s.m }

// Serve accepts sessions on ln until Shutdown or Close. It returns nil
// on a clean shutdown, the accept error otherwise.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		ln.Close()
		return fmt.Errorf("wire: serve: %w", ErrShuttingDown)
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closing := s.closing
			s.mu.Unlock()
			if closing {
				s.wg.Wait()
				return nil
			}
			return err
		}
		s.m.Sessions.Add(1)
		s.m.ActiveSessions.Add(1)
		sess := &session{srv: s, conn: conn}
		s.mu.Lock()
		if s.closing {
			s.mu.Unlock()
			conn.Close()
			s.m.ActiveSessions.Add(-1)
			continue
		}
		s.sessions[sess] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			sess.run()
			s.mu.Lock()
			delete(s.sessions, sess)
			s.mu.Unlock()
			s.m.ActiveSessions.Add(-1)
		}()
	}
}

// Shutdown drains the server: the listener closes, idle sessions (no run
// in flight) close immediately, and sessions inside a run are allowed to
// finish it — the next RunEnd completes the run's result exchange and
// then closes the session. Shutdown blocks until every session is gone.
func (s *Server) Shutdown() {
	s.mu.Lock()
	s.closing = true
	if s.ln != nil {
		s.ln.Close()
	}
	for sess := range s.sessions {
		if !sess.inRun {
			sess.conn.Close()
		}
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// Close force-closes every session and the listener without draining.
func (s *Server) Close() {
	s.mu.Lock()
	s.closing = true
	if s.ln != nil {
		s.ln.Close()
	}
	for sess := range s.sessions {
		sess.conn.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// session is one client connection: handshake state plus the engine it
// drives. inRun is guarded by the server mutex (the shutdown path reads
// it).
type session struct {
	srv   *Server
	conn  net.Conn
	br    *bufio.Reader
	bw    *bufio.Writer
	rbuf  []byte
	sbuf  []byte
	msgs  []congest.Message
	eng   *congest.ShardEngine
	inRun bool
}

// setRun flips the in-run flag; leaving a run reports whether the server
// is draining and the session should close now.
func (ss *session) setRun(v bool) (closing bool) {
	ss.srv.mu.Lock()
	ss.inRun = v
	closing = ss.srv.closing
	ss.srv.mu.Unlock()
	return closing && !v
}

// sendErr emits a typed Error frame (best effort) and counts it.
func (ss *session) sendErr(code uint16, msg string) {
	ss.srv.m.Rejects.Add(1)
	ss.sbuf = encodeError(ss.sbuf[:0], code, msg)
	if writeFrame(ss.bw, FrameError, ss.sbuf) == nil {
		ss.bw.Flush()
	}
}

// rejectCode maps a handshake decode failure to its wire code.
func rejectCode(err error) uint16 {
	switch {
	case errors.Is(err, ErrBadMagic):
		return CodeBadMagic
	case errors.Is(err, ErrVersion):
		return CodeVersion
	default:
		return CodeBadFrame
	}
}

func (ss *session) run() {
	defer ss.conn.Close()
	srv := ss.srv
	cc := countConn{Conn: ss.conn, r: &srv.m.BytesIn.Int64, w: &srv.m.BytesOut.Int64}
	ss.br = bufio.NewReaderSize(cc, 1<<16)
	ss.bw = bufio.NewWriterSize(cc, 1<<16)
	if tc, ok := ss.conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	if !ss.handshake() {
		return
	}
	ss.conn.SetDeadline(time.Time{})
	for {
		t, payload, err := readFrame(ss.br, ss.rbuf)
		if cap(payload) > cap(ss.rbuf) {
			ss.rbuf = payload[:0]
		}
		if err != nil {
			return // EOF, peer vanished (TCP keepalive), or garbage: session over
		}
		switch t {
		case FrameRunBegin:
			if len(payload) != 0 {
				ss.sendErr(CodeBadFrame, "run-begin carries no payload")
				return
			}
			ss.eng.RunBegin()
			srv.m.Runs.Add(1)
			ss.setRun(true)
		case FramePush:
			round, msgs, derr := decodePush(payload, ss.msgs[:0])
			ss.msgs = msgs[:0]
			if derr != nil {
				ss.sendErr(CodeBadFrame, derr.Error())
				return
			}
			if perr := ss.eng.Push(round, msgs); perr != nil {
				ss.sendErr(CodeBadFrame, perr.Error())
				return
			}
			srv.m.MsgsIn.Add(int64(len(msgs)))
			ss.sbuf = encodePushAck(ss.sbuf[:0], ss.eng.Active())
			if writeFrame(ss.bw, FramePushAck, ss.sbuf) != nil || ss.bw.Flush() != nil {
				return
			}
		case FrameDeliver:
			round, derr := decodeDeliver(payload)
			if derr != nil {
				ss.sendErr(CodeBadFrame, derr.Error())
				return
			}
			out := ss.eng.Deliver(round)
			srv.m.Rounds.Add(1)
			srv.m.MsgsOut.Add(int64(len(out)))
			ss.sbuf = encodeBuffer(ss.sbuf[:0], out)
			if writeFrame(ss.bw, FrameBuffer, ss.sbuf) != nil || ss.bw.Flush() != nil {
				return
			}
		case FrameRunEnd:
			res, loss := ss.eng.RunEnd()
			ss.sbuf = encodeRunResult(ss.sbuf[:0], congest.RemoteResult{Res: res, Loss: loss})
			if writeFrame(ss.bw, FrameRunResult, ss.sbuf) != nil || ss.bw.Flush() != nil {
				return
			}
			if ss.setRun(false) {
				return // drained: this was the in-flight run
			}
		case FrameGoodbye:
			return
		default:
			ss.sendErr(CodeBadFrame, fmt.Sprintf("unexpected frame type %d", t))
			return
		}
	}
}

// handshake runs the Hello/Welcome exchange, reporting success.
func (ss *session) handshake() bool {
	srv := ss.srv
	hsTO := srv.cfg.HandshakeTimeout
	if hsTO <= 0 {
		hsTO = DefaultHandshakeTimeout
	}
	ss.conn.SetDeadline(time.Now().Add(hsTO))
	t, payload, err := readFrame(ss.br, ss.rbuf)
	if cap(payload) > cap(ss.rbuf) {
		ss.rbuf = payload[:0]
	}
	if err != nil {
		return false
	}
	if t != FrameHello {
		ss.sendErr(CodeBadFrame, fmt.Sprintf("expected hello, got frame type %d", t))
		return false
	}
	h, err := decodeHello(payload)
	if err != nil {
		ss.sendErr(rejectCode(err), err.Error())
		return false
	}
	// graph.New(N) costs 32 bytes per node before a single edge is read,
	// so N is capped at what one frame can describe: MaxFrame/edgeWire
	// edges connect at most one node more than that.
	if h.N < 0 || h.N > MaxFrame/edgeWire+1 {
		ss.sendErr(CodeBadFrame, fmt.Sprintf("implausible node count %d", h.N))
		return false
	}
	g := graph.New(h.N)
	for _, e := range h.Edges {
		if err := g.AddWeightedEdge(e.U, e.V, e.W); err != nil {
			ss.sendErr(CodeBadFrame, err.Error())
			return false
		}
	}
	if got := GraphDigest(g); got != h.Digest {
		ss.sendErr(CodeGeneration, fmt.Sprintf("topology digest %016x does not match declared generation %016x", got, h.Digest))
		return false
	}
	srv.mu.Lock()
	closing := srv.closing
	srv.mu.Unlock()
	if closing {
		ss.sendErr(CodeShuttingDown, "engine is draining")
		return false
	}
	if h.Shard < 0 || h.Shard >= len(h.Bounds)-1 {
		ss.sendErr(CodeShardIndex, fmt.Sprintf("shard index %d outside plan of %d shards", h.Shard, len(h.Bounds)-1))
		return false
	}
	if srv.cfg.PinShard >= 0 && h.Shard != srv.cfg.PinShard {
		ss.sendErr(CodeShardIndex, fmt.Sprintf("engine serves only shard %d, session asked for %d", srv.cfg.PinShard, h.Shard))
		return false
	}
	eng, err := congest.NewShardEngine(g, h.Bounds, h.Shard, h.EdgeCap, h.Plan)
	if err != nil {
		ss.sendErr(CodeBadPlan, err.Error())
		return false
	}
	ss.eng = eng
	ss.sbuf = encodeWelcome(ss.sbuf[:0], Welcome{Version: Version, Shard: h.Shard, PID: os.Getpid()})
	if writeFrame(ss.bw, FrameWelcome, ss.sbuf) != nil || ss.bw.Flush() != nil {
		return false
	}
	return true
}
