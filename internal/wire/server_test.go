package wire

import (
	"bufio"
	"encoding/json"
	"errors"
	"net"
	"reflect"
	"testing"
	"time"

	"distwalk/internal/congest"
	"distwalk/internal/fault"
	"distwalk/internal/graph"
)

// startServer spins up a Server on a loopback listener and tears it down
// with the test.
func startServer(t *testing.T, cfg ServerConfig) (*Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := NewServer(cfg)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return srv, ln.Addr().String()
}

// tokenPayload is the test protocol's message: a hop budget and a value,
// exercising RNG-driven routing so identity failures show up immediately.
type tokenPayload struct{ hops, val int32 }

func (p tokenPayload) Kind() uint16 { return 7 }
func (p tokenPayload) Words() int   { return 1 }
func (p tokenPayload) Encode() [congest.PayloadWords]uint64 {
	return [congest.PayloadWords]uint64{congest.Pack2(p.hops, p.val)}
}
func (tokenPayload) Decode(w [congest.PayloadWords]uint64) tokenPayload {
	h, v := congest.Unpack2(w[0])
	return tokenPayload{hops: h, val: v}
}

// tokenProto floods random-walking tokens from seed nodes and tallies the
// per-node receipt history; any divergence between transports perturbs
// the RNG streams and shows up in got.
type tokenProto struct {
	seeds []graph.NodeID
	hops  int32
	got   []int64
}

func newTokenProto(n int, seeds []graph.NodeID, hops int32) *tokenProto {
	return &tokenProto{seeds: seeds, hops: hops, got: make([]int64, n)}
}

func randNbr(c *congest.Ctx) graph.NodeID {
	nbrs := c.Neighbors()
	return nbrs[c.RNG().Intn(len(nbrs))].To
}

func (p *tokenProto) Init(c *congest.Ctx) {
	for _, s := range p.seeds {
		if c.Node() == s {
			congest.Send(c, randNbr(c), tokenPayload{hops: p.hops, val: int32(s)})
		}
	}
}

func (p *tokenProto) Step(c *congest.Ctx) {
	for _, m := range c.Inbox() {
		tk := congest.As[tokenPayload](m)
		p.got[c.Node()] += int64(tk.val)*31 + int64(tk.hops)
		if tk.hops > 0 {
			congest.Send(c, randNbr(c), tokenPayload{hops: tk.hops - 1, val: tk.val})
		}
	}
}

// dialGroup dials one EngineConn per shard of a cluster plan against a
// single server and returns the RemoteShard group plus its bounds.
func dialGroup(t *testing.T, addr string, g *graph.G, engines, edgeCap int, plan *fault.Plan) ([]congest.RemoteShard, []int32, []*EngineConn) {
	t.Helper()
	bounds := congest.PlanShards(g, engines)
	group := make([]congest.RemoteShard, len(bounds)-1)
	conns := make([]*EngineConn, len(bounds)-1)
	for i := range group {
		h := HelloFor(g, len(bounds)-1, i, edgeCap, 42, plan)
		c, err := DialEngine(addr, h)
		if err != nil {
			t.Fatalf("dial shard %d: %v", i, err)
		}
		t.Cleanup(func() { c.Close() })
		group[i] = c
		conns[i] = c
	}
	return group, bounds, conns
}

// TestClusterRunIdentityTCP is the wire-level identity anchor: the same
// workload through real TCP sessions against a live Server must match the
// sequential engine bit for bit — Result counters, per-node receipt
// history, and run error.
func TestClusterRunIdentityTCP(t *testing.T) {
	g, err := graph.Torus(6, 6)
	if err != nil {
		t.Fatalf("torus: %v", err)
	}
	seeds := []graph.NodeID{0, 7, 13, 20, 35}
	const hops = 40

	run := func(n *congest.Network) (congest.Result, error, []int64) {
		p := newTokenProto(g.N(), seeds, hops)
		res, err := n.Run(p)
		return res, err, p.got
	}

	seqNet := congest.NewNetwork(g, 42)
	wantRes, wantErr, wantGot := run(seqNet)
	if wantErr != nil {
		t.Fatalf("sequential run: %v", wantErr)
	}

	for _, engines := range []int{1, 2, 4} {
		_, addr := startServer(t, ServerConfig{PinShard: -1})
		group, bounds, conns := dialGroup(t, addr, g, engines, 1, nil)
		n := congest.NewNetwork(g, 42)
		if err := n.ConnectRemote(group, bounds); err != nil {
			t.Fatalf("%d engines: connect: %v", engines, err)
		}
		// Three runs back to back: session reuse must not leak state.
		for rep := 0; rep < 3; rep++ {
			n.Reseed(42)
			res, err, got := run(n)
			if err != nil {
				t.Fatalf("%d engines rep %d: %v", engines, rep, err)
			}
			if res != wantRes {
				t.Fatalf("%d engines rep %d: result %+v, want %+v", engines, rep, res, wantRes)
			}
			if !reflect.DeepEqual(got, wantGot) {
				t.Fatalf("%d engines rep %d: per-node receipts diverge", engines, rep)
			}
		}
		for _, c := range conns {
			st := c.Stats()
			if st.Runs != 3 || st.BytesOut == 0 || st.BytesIn == 0 {
				t.Fatalf("%d engines: implausible conn stats %+v", engines, st)
			}
		}
	}
}

// TestClusterRunIdentityTCPFaultPlan repeats the identity check under a
// seeded fault plan: drop rolls, crash schedules, churn, link faults and
// the first-loss record must all survive the wire.
func TestClusterRunIdentityTCPFaultPlan(t *testing.T) {
	g, err := graph.Torus(6, 6)
	if err != nil {
		t.Fatalf("torus: %v", err)
	}
	plan := &fault.Plan{
		Seed:       77,
		DropProb:   0.02,
		Crashes:    []fault.Crash{{Node: 11, Round: 6}},
		Churn:      []fault.Churn{{Node: 30, From: 3, To: 9}},
		LinkDrops:  []fault.LinkDrop{{From: 1, To: 2, Prob: 0.5}},
		LinkDelays: []fault.LinkDelay{{From: 9, To: 10, Rounds: 3}},
	}
	seeds := []graph.NodeID{0, 7, 13, 20, 35}
	const hops = 40

	seqNet := congest.NewNetwork(g, 42)
	if err := seqNet.SetFaultPlan(plan); err != nil {
		t.Fatalf("fault plan: %v", err)
	}
	seqProto := newTokenProto(g.N(), seeds, hops)
	wantRes, wantErr := seqNet.Run(seqProto)
	if wantErr != nil {
		t.Fatalf("sequential run: %v", wantErr)
	}
	wantLoss := seqNet.LossError()
	if wantRes.Faults == (congest.FaultStats{}) {
		t.Fatal("fault plan charged nothing; workload too small to prove identity")
	}

	for _, engines := range []int{2, 4} {
		_, addr := startServer(t, ServerConfig{PinShard: -1})
		group, bounds, _ := dialGroup(t, addr, g, engines, 1, plan)
		n := congest.NewNetwork(g, 42)
		if err := n.SetFaultPlan(plan); err != nil {
			t.Fatalf("fault plan: %v", err)
		}
		if err := n.ConnectRemote(group, bounds); err != nil {
			t.Fatalf("connect: %v", err)
		}
		p := newTokenProto(g.N(), seeds, hops)
		res, err := n.Run(p)
		if err != nil {
			t.Fatalf("%d engines: %v", engines, err)
		}
		if res != wantRes {
			t.Fatalf("%d engines: result %+v, want %+v", engines, res, wantRes)
		}
		if !reflect.DeepEqual(p.got, seqProto.got) {
			t.Fatalf("%d engines: per-node receipts diverge under faults", engines)
		}
		gotLoss := n.LossError()
		switch {
		case (wantLoss == nil) != (gotLoss == nil):
			t.Fatalf("%d engines: loss %v, want %v", engines, gotLoss, wantLoss)
		case wantLoss != nil && wantLoss.Error() != gotLoss.Error():
			t.Fatalf("%d engines: loss %q, want %q", engines, gotLoss, wantLoss)
		}
	}
}

func TestHandshakeRejections(t *testing.T) {
	g, err := graph.Torus(4, 4)
	if err != nil {
		t.Fatalf("torus: %v", err)
	}
	srv, addr := startServer(t, ServerConfig{PinShard: -1})

	t.Run("corrupt digest", func(t *testing.T) {
		h := HelloFor(g, 2, 0, 1, 1, nil)
		h.Digest ^= 1
		if _, err := DialEngine(addr, h); !errors.Is(err, ErrGeneration) {
			t.Fatalf("got %v, want ErrGeneration", err)
		}
	})

	t.Run("shard out of range", func(t *testing.T) {
		h := HelloFor(g, 2, 0, 1, 1, nil)
		h.Shard = 5
		if _, err := DialEngine(addr, h); !errors.Is(err, ErrShardIndex) {
			t.Fatalf("got %v, want ErrShardIndex", err)
		}
	})

	t.Run("bad bounds", func(t *testing.T) {
		h := HelloFor(g, 2, 0, 1, 1, nil)
		h.Bounds = []int32{0, 1} // does not cover [0, 16)
		if _, err := DialEngine(addr, h); !errors.Is(err, ErrBadPlan) {
			t.Fatalf("got %v, want ErrBadPlan", err)
		}
	})

	t.Run("two topologies one server", func(t *testing.T) {
		// The server keeps no topology across sessions: sessions for g and
		// a mutated g2 are open at once, and each engine serves the graph
		// its own Hello shipped.
		g2, _ := graph.Torus(4, 4)
		if err := g2.AddWeightedEdge(0, 5, 2); err != nil {
			t.Fatalf("add edge: %v", err)
		}
		seeds := []graph.NodeID{0, 5, 10}
		nets := make([]*congest.Network, 2)
		for i, gr := range []*graph.G{g, g2} {
			group, bounds, _ := dialGroup(t, addr, gr, 2, 1, nil)
			nets[i] = congest.NewNetwork(gr, 42)
			if err := nets[i].ConnectRemote(group, bounds); err != nil {
				t.Fatalf("connect %d: %v", i, err)
			}
		}
		for i, gr := range []*graph.G{g, g2} {
			want := newTokenProto(gr.N(), seeds, 30)
			wantRes, err := congest.NewNetwork(gr, 42).Run(want)
			if err != nil {
				t.Fatalf("sequential run %d: %v", i, err)
			}
			got := newTokenProto(gr.N(), seeds, 30)
			res, err := nets[i].Run(got)
			if err != nil {
				t.Fatalf("cluster run %d: %v", i, err)
			}
			if res != wantRes || !reflect.DeepEqual(got.got, want.got) {
				t.Fatalf("topology %d: result %+v, want %+v (receipts equal: %v)",
					i, res, wantRes, reflect.DeepEqual(got.got, want.got))
			}
		}
	})

	t.Run("node count beyond one frame", func(t *testing.T) {
		// A 60-byte Hello must not make the engine allocate for 1<<28
		// nodes before it checks a single edge; the server stays usable.
		h := HelloFor(g, 2, 0, 1, 1, nil)
		h.N, h.Edges = 1<<28, nil
		_, err := DialEngine(addr, h)
		var re *RemoteError
		if !errors.As(err, &re) || re.Code != CodeBadFrame {
			t.Fatalf("got %v, want a CodeBadFrame rejection", err)
		}
		c, err := DialEngine(addr, HelloFor(g, 2, 0, 1, 1, nil))
		if err != nil {
			t.Fatalf("valid session after the rejection: %v", err)
		}
		c.Close()
	})

	t.Run("raw magic and version", func(t *testing.T) {
		for name, mangle := range map[string]func([]byte){
			"magic":   func(b []byte) { b[0] ^= 0xff },
			"version": func(b []byte) { b[4] ^= 0xff },
		} {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatalf("%s: dial: %v", name, err)
			}
			payload := encodeHello(nil, HelloFor(g, 2, 0, 1, 1, nil))
			mangle(payload)
			bw := bufio.NewWriter(conn)
			if err := writeFrame(bw, FrameHello, payload); err != nil || bw.Flush() != nil {
				t.Fatalf("%s: write: %v", name, err)
			}
			ft, v, err := ReadFrame(bufio.NewReader(conn), nil)
			if err != nil || ft != FrameError {
				t.Fatalf("%s: reply frame %d err %v", name, ft, err)
			}
			re := v.(*RemoteError)
			want := map[string]uint16{"magic": CodeBadMagic, "version": CodeVersion}[name]
			if re.Code != want {
				t.Fatalf("%s: code %d, want %d", name, re.Code, want)
			}
			conn.Close()
		}
	})

	// One each from corrupt digest, shard out of range, bad bounds and
	// node count, two from raw magic and version.
	if rejects := srv.Metrics().Rejects.Load(); rejects != 6 {
		t.Fatalf("reject counter %d, want 6", rejects)
	}
}

func TestPinnedShardServer(t *testing.T) {
	g, err := graph.Torus(4, 4)
	if err != nil {
		t.Fatalf("torus: %v", err)
	}
	_, addr := startServer(t, ServerConfig{PinShard: 1})
	if _, err := DialEngine(addr, HelloFor(g, 2, 0, 1, 1, nil)); !errors.Is(err, ErrShardIndex) {
		t.Fatalf("-shard 1 server accepted shard 0: %v", err)
	}
	c, err := DialEngine(addr, HelloFor(g, 2, 1, 1, 1, nil))
	if err != nil {
		t.Fatalf("-shard 1 server refused its own shard: %v", err)
	}
	c.Close()
}

// TestShutdownDrain pins the graceful-drain contract: a run in flight
// finishes through RunEnd, new sessions are refused, idle sessions close,
// and Shutdown returns once every session is gone.
func TestShutdownDrain(t *testing.T) {
	g, err := graph.Torus(4, 4)
	if err != nil {
		t.Fatalf("torus: %v", err)
	}
	srv, addr := startServer(t, ServerConfig{PinShard: -1})
	h := HelloFor(g, 1, 0, 1, 1, nil)

	busy, err := DialEngine(addr, h)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer busy.Close()
	idle, err := DialEngine(addr, h)
	if err != nil {
		t.Fatalf("dial idle: %v", err)
	}
	defer idle.Close()

	// Put the first session mid-run: past the push barrier of round 0.
	if err := busy.RunBegin(); err != nil {
		t.Fatalf("run begin: %v", err)
	}
	if err := busy.SendPushes(0, []congest.Message{
		congest.MakeMessage(0, 1, 7, 1, [congest.PayloadWords]uint64{1}),
	}); err != nil {
		t.Fatalf("push: %v", err)
	}
	if _, err := busy.ReadPushAck(); err != nil {
		t.Fatalf("push ack: %v", err)
	}

	done := make(chan struct{})
	go func() { srv.Shutdown(); close(done) }()

	// The drain must not complete while the run is in flight.
	select {
	case <-done:
		t.Fatal("shutdown returned with a run in flight")
	case <-time.After(50 * time.Millisecond):
	}

	// New sessions are refused while draining.
	if _, err := DialEngine(addr, h); err == nil {
		t.Fatal("dial succeeded during drain")
	}

	// The in-flight run completes normally...
	if err := busy.SendDeliver(1); err != nil {
		t.Fatalf("deliver: %v", err)
	}
	if buf, err := busy.ReadBuffer(nil); err != nil || len(buf) != 1 {
		t.Fatalf("buffer: %d msgs, err %v", len(buf), err)
	}
	rr, err := busy.FinishRun()
	if err != nil {
		t.Fatalf("finish: %v", err)
	}
	if rr.Res.Messages != 1 {
		t.Fatalf("drained run result %+v, want 1 message", rr.Res)
	}

	// ...and the drain then finishes (idle session force-closed).
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("shutdown did not return after the run finished")
	}

	// The drained session is closed: the next run fails.
	if err := busy.RunBegin(); err == nil {
		if err := busy.SendPushes(0, nil); err == nil {
			if _, err := busy.ReadPushAck(); err == nil {
				t.Fatal("session usable after drain")
			}
		}
	}
}

// TestSessionAbandonedMidRound drops a client with a pipelined round
// outstanding — Push and Deliver written, neither reply read — and no
// Goodbye: the server must close the session on its own (the package's
// TestMain fence then finds its goroutine gone).
func TestSessionAbandonedMidRound(t *testing.T) {
	g, err := graph.Torus(4, 4)
	if err != nil {
		t.Fatalf("torus: %v", err)
	}
	srv, addr := startServer(t, ServerConfig{PinShard: -1})
	c, err := DialEngine(addr, HelloFor(g, 1, 0, 1, 1, nil))
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if err := c.RunBegin(); err != nil {
		t.Fatalf("run begin: %v", err)
	}
	if err := c.SendPushes(0, []congest.Message{
		congest.MakeMessage(0, 1, 7, 1, [congest.PayloadWords]uint64{1}),
	}); err != nil {
		t.Fatalf("push: %v", err)
	}
	if err := c.SendDeliver(1); err != nil {
		t.Fatalf("deliver: %v", err)
	}
	c.broken = true // abandon: Close drops the connection without a Goodbye
	c.Close()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Metrics().ActiveSessions.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("the abandoned session is still open after 5s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSessionBadFrames pins the server's typed rejection of protocol
// violations inside an established session.
func TestSessionBadFrames(t *testing.T) {
	g, err := graph.Torus(4, 4)
	if err != nil {
		t.Fatalf("torus: %v", err)
	}
	for name, tc := range map[string]struct {
		drive func(c *EngineConn) error
	}{
		"push outside shard": {func(c *EngineConn) error {
			if err := c.RunBegin(); err != nil {
				return err
			}
			// Node 15 belongs to shard 1 of a 2-shard plan; shard 0 must
			// refuse to carry its sends.
			if err := c.SendPushes(0, []congest.Message{
				congest.MakeMessage(15, 14, 7, 1, [congest.PayloadWords]uint64{}),
			}); err != nil {
				return err
			}
			_, err := c.ReadPushAck()
			return err
		}},
		"goodbye then push": {func(c *EngineConn) error {
			if err := writeFrame(c.bw, FrameGoodbye, nil); err != nil {
				return err
			}
			if err := c.SendPushes(0, nil); err != nil {
				return err
			}
			_, err := c.ReadPushAck()
			return err
		}},
	} {
		t.Run(name, func(t *testing.T) {
			_, addr := startServer(t, ServerConfig{PinShard: -1})
			c, err := DialEngine(addr, HelloFor(g, 2, 0, 1, 1, nil))
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			defer c.Close()
			if err := tc.drive(c); err == nil {
				t.Fatal("protocol violation accepted")
			}
		})
	}
}

// TestServerMetrics sanity-checks the counter plumbing end to end.
func TestServerMetrics(t *testing.T) {
	g, err := graph.Torus(4, 4)
	if err != nil {
		t.Fatalf("torus: %v", err)
	}
	srv, addr := startServer(t, ServerConfig{PinShard: -1})
	group, bounds, _ := dialGroup(t, addr, g, 2, 1, nil)
	n := congest.NewNetwork(g, 42)
	if err := n.ConnectRemote(group, bounds); err != nil {
		t.Fatalf("connect: %v", err)
	}
	if _, err := n.Run(newTokenProto(g.N(), []graph.NodeID{0, 5}, 10)); err != nil {
		t.Fatalf("run: %v", err)
	}
	// The expvar rendering: one JSON number per counter, under its json tag.
	raw, err := json.Marshal(srv.Metrics())
	if err != nil {
		t.Fatal(err)
	}
	var snap map[string]int64
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("Metrics JSON %s: %v", raw, err)
	}
	for _, key := range []string{"sessions", "runs", "rounds", "msgs_in", "msgs_out", "bytes_in", "bytes_out"} {
		if snap[key] <= 0 {
			t.Fatalf("metric %s = %d, want > 0 (snapshot %v)", key, snap[key], snap)
		}
	}
	if len(snap) != 9 {
		t.Fatalf("snapshot has %d counters, want 9 (the seven above, active_sessions, rejects): %v", len(snap), snap)
	}
	if snap["active_sessions"] != 2 {
		t.Fatalf("active_sessions = %d, want 2", snap["active_sessions"])
	}
}
