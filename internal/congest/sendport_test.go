package congest

import (
	"fmt"
	"reflect"
	"testing"

	"distwalk/internal/fault"
	"distwalk/internal/graph"
)

// Port-addressed sends, differentially against the to-addressed path: the
// same protocol, the same draws, the two addressings — everything
// observable must be equal on every transport.

// transport is one way to execute a run: shards in-process, or — with
// engines > 0 — a loopback cluster.
type transport struct{ shards, engines int }

func (tr transport) String() string {
	if tr.engines > 0 {
		return fmt.Sprintf("loopback%d", tr.engines)
	}
	return fmt.Sprintf("S=%d", tr.shards)
}

var sendPortTransports = []transport{{1, 0}, {2, 0}, {4, 0}, {1, 1}, {1, 2}, {1, 4}}

// build makes a network over g for the transport, with the uniform edge
// capacity and fault plan installed on both sides of a cluster.
func (tr transport) build(t *testing.T, g *graph.G, edgeCap int, plan *fault.Plan) *Network {
	t.Helper()
	net := NewNetwork(g, 42, WithEdgeCap(edgeCap), WithShards(tr.shards))
	if plan != nil {
		if err := net.SetFaultPlan(plan); err != nil {
			t.Fatal(err)
		}
	}
	if tr.engines > 0 {
		group, bounds, err := NewLoopbackGroup(g, tr.engines, edgeCap, plan)
		if err != nil {
			t.Fatal(err)
		}
		if err := net.ConnectRemote(group, bounds); err != nil {
			t.Fatal(err)
		}
	}
	return net
}

// sendDigest is everything a run leaves observable: its cost, the
// per-node receipt logs and the first-loss record.
type sendDigest struct {
	res  Result
	got  []int
	sum  []int64
	loss LossRecord
}

func TestSendPortMatchesSend(t *testing.T) {
	torus, err := graph.Torus(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	multi, err := torus.ApplyEdits(nil, []graph.EdgeEdit{{U: 0, V: 1}, {U: 0, V: 1}, {U: 7, V: 8}, {U: 14, V: 20}})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		g       *graph.G
		edgeCap int
		plan    *fault.Plan
		check   func(Result, LossRecord) bool // the case reached what it is there for
	}{
		{name: "torus", g: torus, edgeCap: 1},
		{name: "parallel", g: multi, edgeCap: 1},
		{name: "cap3", g: multi, edgeCap: 3, check: func(r Result, _ LossRecord) bool { return r.MaxQueue > 3 }},
		{name: "delays", g: multi, edgeCap: 1,
			plan: &fault.Plan{Seed: 5, LinkDelays: []fault.LinkDelay{
				{From: 0, To: 1, Rounds: 2}, // all three parallel edges 0→1
				{From: 8, To: 7, Rounds: 3},
				{From: 3, To: 4, Rounds: 1},
			}},
			check: func(r Result, _ LossRecord) bool { return r.Faults.Delayed > 0 }},
		{name: "crash", g: multi, edgeCap: 1,
			plan: &fault.Plan{Seed: 9, DropProb: 0.01,
				Crashes: []fault.Crash{{Node: 7, Round: 5}, {Node: 20, Round: 1}}},
			check: func(r Result, l LossRecord) bool { return r.Faults.Dropped > 0 && l.Valid }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(tr transport, byPort bool) sendDigest {
				net := tr.build(t, tc.g, tc.edgeCap, tc.plan)
				p := (&stressProto{seeds: 12, hops: 30, awakeRounds: 12, byPort: byPort}).prepare(tc.g.N())
				res, err := net.Run(p)
				if err != nil {
					t.Fatalf("%v byPort=%v: %v", tr, byPort, err)
				}
				return sendDigest{res: res, got: p.got, sum: p.sum, loss: net.loss}
			}
			want := run(sendPortTransports[0], false)
			if tc.check != nil && !tc.check(want.res, want.loss) {
				t.Fatalf("reference run %+v (loss %+v) never reached the case it covers", want.res, want.loss)
			}
			for _, tr := range sendPortTransports {
				if got := run(tr, true); !reflect.DeepEqual(got, want) {
					t.Fatalf("%v: SendPort run diverged from Send at S=1:\n got %+v loss %+v\nwant %+v loss %+v",
						tr, got.res, got.loss, want.res, want.loss)
				}
			}
		})
	}
}

// wideLoad declares a size Message.words cannot hold.
type wideLoad struct{ intPayload }

func (wideLoad) Words() int { return 1 << 16 }

// badPort floods like badSend and has one node, at one round, make one
// invalid send: a port it does not have, or an over-wide payload through
// either addressing.
type badPort struct {
	node    graph.NodeID
	atRound int
	send    func(ctx *Ctx)
}

func (p *badPort) Init(ctx *Ctx) { p.Step(ctx) }

func (p *badPort) Step(ctx *Ctx) {
	for port := range ctx.Neighbors() {
		ctx.SendPort(port, 100, 1, 1, 0, 0, 0)
	}
	if ctx.Node() == p.node && ctx.Round() == p.atRound {
		p.send(ctx)
	}
}

func TestSendPortInvalidSends(t *testing.T) {
	g, err := graph.Path(8)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		send func(ctx *Ctx)
		want string
	}{
		{"port=degree", func(ctx *Ctx) { ctx.SendPort(ctx.Degree(), 100, 1, 0, 0, 0, 0) },
			"congest: node 2 sent on port 2, which it does not have"},
		{"port=-1", func(ctx *Ctx) { ctx.SendPort(-1, 100, 1, 0, 0, 0, 0) },
			"congest: node 2 sent on port -1, which it does not have"},
		{"wide/SendPort", func(ctx *Ctx) { ctx.SendPort(0, 100, 1<<16, 0, 0, 0, 0) },
			"congest: node 2 sent an invalid payload"},
		{"wide/Send", func(ctx *Ctx) { Send(ctx, 3, wideLoad{}) },
			"congest: node 2 sent an invalid payload"},
		{"empty/SendPort", func(ctx *Ctx) { ctx.SendPort(0, 100, 0, 0, 0, 0, 0) },
			"congest: node 2 sent an invalid payload"},
	}
	for _, tc := range cases {
		for _, atRound := range []int{0, 2} {
			var first *Result
			for _, tr := range []transport{{1, 0}, {2, 0}, {1, 2}} {
				t.Run(fmt.Sprintf("%s/round%d/%v", tc.name, atRound, tr), func(t *testing.T) {
					net := tr.build(t, g, 1, nil)
					net.SetMaxRounds(10) // the flood only ends by erring
					res, err := net.Run(&badPort{node: 2, atRound: atRound, send: tc.send})
					if err == nil || err.Error() != tc.want {
						t.Fatalf("err = %v, want %q", err, tc.want)
					}
					if res.Rounds != atRound {
						t.Fatalf("aborted at round %d, want %d", res.Rounds, atRound)
					}
					if first == nil {
						first = &res
					} else if res != *first {
						t.Fatalf("partial Result %+v differs from S=1's %+v", res, *first)
					}
				})
			}
		}
	}
}

// sendOnce has node 0 make one send in Init.
type sendOnce func(ctx *Ctx)

func (p sendOnce) Init(ctx *Ctx) {
	if ctx.Node() == 0 {
		p(ctx)
	}
}
func (sendOnce) Step(*Ctx) {}

// TestSendWordsLimit pins the boundary of the payload-size check: the
// widest payload a Message can declare is accepted and charged in full.
func TestSendWordsLimit(t *testing.T) {
	g, err := graph.Path(2)
	if err != nil {
		t.Fatal(err)
	}
	const widest = 1<<16 - 1
	res, err := NewNetwork(g, 1).Run(sendOnce(func(ctx *Ctx) { ctx.SendPort(0, 100, widest, 0, 0, 0, 0) }))
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != 1 || res.Words != widest {
		t.Fatalf("charged %d messages, %d words; want 1, %d", res.Messages, res.Words, widest)
	}
}

// TestParallelEdgeBitsFollowTopology: which nodes a port-addressed send
// must resolve through the neighbor index is derived from the graph by
// every index build — exactly the endpoints of parallel edges, and again
// after a reshape adds or removes one.
func TestParallelEdgeBitsFollowTopology(t *testing.T) {
	torus, err := graph.Torus(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	multi, err := torus.ApplyEdits(nil, []graph.EdgeEdit{{U: 0, V: 1}, {U: 14, V: 20}})
	if err != nil {
		t.Fatal(err)
	}
	simple, err := multi.ApplyEdits([]graph.EdgeEdit{{U: 0, V: 1}, {U: 14, V: 20}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	net := NewNetwork(torus, 1)
	for _, step := range []struct {
		g    *graph.G
		want []graph.NodeID
	}{{torus, nil}, {multi, []graph.NodeID{0, 1, 14, 20}}, {simple, nil}} {
		if _, err := net.Reshape(step.g); err != nil {
			t.Fatal(err)
		}
		var got []graph.NodeID
		for v := 0; v < step.g.N(); v++ {
			if net.hasParallel(graph.NodeID(v)) {
				got = append(got, graph.NodeID(v))
			}
		}
		if !reflect.DeepEqual(got, step.want) {
			t.Fatalf("nodes marked as having parallel edges: %v, want %v", got, step.want)
		}
	}
}
