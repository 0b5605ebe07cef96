package congest

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"distwalk/internal/fault"
	"distwalk/internal/graph"
)

// --- Round cadence of the cluster client ---

// recShard records the RemoteShard call sequence of every engine of a
// group into one shared log, as "<method><engine>".
type recShard struct {
	RemoteShard
	id  int
	log *[]string
}

func (r recShard) note(method string) { *r.log = append(*r.log, fmt.Sprint(method, r.id)) }

func (r recShard) RunBegin() error { r.note("RunBegin"); return r.RemoteShard.RunBegin() }
func (r recShard) SendPushes(round int, msgs []Message) error {
	r.note("SendPushes")
	return r.RemoteShard.SendPushes(round, msgs)
}
func (r recShard) ReadPushAck() (int, error) {
	r.note("ReadPushAck")
	return r.RemoteShard.ReadPushAck()
}
func (r recShard) SendDeliver(round int) error {
	r.note("SendDeliver")
	return r.RemoteShard.SendDeliver(round)
}
func (r recShard) ReadBuffer(buf []Message) ([]Message, error) {
	r.note("ReadBuffer")
	return r.RemoteShard.ReadBuffer(buf)
}
func (r recShard) FinishRun() (RemoteResult, error) {
	r.note("FinishRun")
	return r.RemoteShard.FinishRun()
}

// wantCadence is the call log of a run of the given number of rounds
// over s engines: every continuing round one exchange per engine (push
// and deliver written to all engines before any read) when pipelined,
// two (push, then deliver) otherwise; the final round push, ack, finish.
func wantCadence(s, rounds int, pipelined bool) []string {
	var log []string
	each := func(methods ...string) {
		for i := 0; i < s; i++ {
			for _, m := range methods {
				log = append(log, fmt.Sprint(m, i))
			}
		}
	}
	each("RunBegin")
	for r := 0; r < rounds; r++ {
		if pipelined {
			each("SendPushes", "SendDeliver")
			each("ReadPushAck", "ReadBuffer")
		} else {
			each("SendPushes")
			each("ReadPushAck")
			each("SendDeliver")
			each("ReadBuffer")
		}
	}
	each("SendPushes")
	each("ReadPushAck")
	each("FinishRun")
	return log
}

// cadenceCase is one workload of TestRemoteRoundCadence: a graph, a
// fault plan, network options and a protocol with its observable state.
type cadenceCase struct {
	name      string
	g         *graph.G
	plan      *fault.Plan
	opts      []Option
	proto     func() (Proto, func() any)
	pipelined bool
}

// tokenCase is one 40-hop token per node over n nodes, its per-node
// receipt logs the observable state.
func tokenCase(n int) func() (Proto, func() any) {
	return func() (Proto, func() any) {
		p := (&stressProto{seeds: 1, hops: 40, via: viaPort}).prepare(n)
		return p, func() any { return [2]any{p.got, p.sum} }
	}
}

// runDigest is what a run leaves observable.
type runDigest struct {
	res   Result
	err   string
	loss  string
	state any
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestRemoteRoundCadence pins the cluster client's round cadence against
// a recorder of the RemoteShard calls, and that each cadence computes
// the in-process execution: Result, run error, LossError and per-node
// state equal the single-shard run's at 2 and 4 engines. A fault-free
// run (a halted and a budget-capped one included) pipelines every
// continuing round; a plan that can drop messages keeps two exchanges.
func TestRemoteRoundCadence(t *testing.T) {
	torus, err := graph.Torus(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	cycle, err := graph.Cycle(16)
	if err != nil {
		t.Fatal(err)
	}
	delays := &fault.Plan{Seed: 3, LinkDelays: []fault.LinkDelay{{From: 9, To: 10, Rounds: 3}}}
	// TestClusterRunIdentityTCPFaultPlan's plan (internal/wire): global
	// and per-link loss, a crash, a churn window and a delayed link.
	lossy := &fault.Plan{
		Seed:       77,
		DropProb:   0.02,
		Crashes:    []fault.Crash{{Node: 11, Round: 6}},
		Churn:      []fault.Churn{{Node: 30, From: 3, To: 9}},
		LinkDrops:  []fault.LinkDrop{{From: 1, To: 2, Prob: 0.5}},
		LinkDelays: []fault.LinkDelay{{From: 9, To: 10, Rounds: 3}},
	}
	cases := []cadenceCase{
		{name: "tokens", g: torus, proto: tokenCase(torus.N()), pipelined: true},
		{name: "delays", g: torus, plan: delays, proto: tokenCase(torus.N()), pipelined: true},
		{name: "lossy", g: torus, plan: lossy, proto: tokenCase(torus.N())},
		{name: "halter", g: cycle, pipelined: true, proto: func() (Proto, func() any) {
			p := &haltAt{target: 9}
			return p, func() any { return p.done }
		}},
		{name: "budget", g: torus, opts: []Option{WithMaxRounds(9)}, proto: tokenCase(torus.N()), pipelined: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(net *Network) runDigest {
				if tc.plan != nil {
					if err := net.SetFaultPlan(tc.plan); err != nil {
						t.Fatal(err)
					}
				}
				p, state := tc.proto()
				res, err := net.Run(p)
				return runDigest{res: res, err: errString(err), loss: errString(net.LossError()), state: state()}
			}
			want := run(NewNetwork(tc.g, 42, tc.opts...))
			if tc.name == "budget" && !strings.Contains(want.err, ErrRoundLimit.Error()) {
				t.Fatalf("in-process err = %q, want the round limit", want.err)
			}
			if tc.name == "lossy" && want.loss == "" {
				t.Fatal("the plan lost nothing; the lossy case needs a loss")
			}
			for _, s := range []int{2, 4} {
				group, bounds, err := NewLoopbackGroup(tc.g, s, 1, tc.plan)
				if err != nil {
					t.Fatal(err)
				}
				var log []string
				for i := range group {
					group[i] = recShard{RemoteShard: group[i], id: i, log: &log}
				}
				net := NewNetwork(tc.g, 42, tc.opts...)
				if err := net.ConnectRemote(group, bounds); err != nil {
					t.Fatal(err)
				}
				got := run(net)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("engines=%d: digest %+v, in-process %+v", s, got, want)
				}
				if cad := wantCadence(s, got.res.Rounds, tc.pipelined); !reflect.DeepEqual(log, cad) {
					t.Fatalf("engines=%d: call log\n%v\nwant\n%v", s, log, cad)
				}
			}
		})
	}
}

// TestRemoteInFlightCrossCheck builds the engines with a drop plan their
// plan-less client lacks: the client's in-flight count then disagrees
// with the engines' active count once a message is lost, and the run
// must fail typed — neither hang nor run into the round budget.
func TestRemoteInFlightCrossCheck(t *testing.T) {
	g, err := graph.Torus(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []int{2, 4} {
		group, bounds, err := NewLoopbackGroup(g, s, 1, &fault.Plan{Seed: 9, DropProb: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		net := NewNetwork(g, 42)
		if err := net.ConnectRemote(group, bounds); err != nil {
			t.Fatal(err)
		}
		p := (&stressProto{seeds: 1, hops: 40, via: viaPort}).prepare(g.N())
		_, err = net.Run(p)
		if !errors.Is(err, ErrRemoteShard) || errors.Is(err, ErrRoundLimit) {
			t.Fatalf("engines=%d: err = %v, want ErrRemoteShard", s, err)
		}
		if !strings.Contains(err.Error(), "in flight") {
			t.Fatalf("engines=%d: err = %v, want both counts named", s, err)
		}
	}
}
