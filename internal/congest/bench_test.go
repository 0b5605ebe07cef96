package congest

import (
	"fmt"
	"testing"

	"distwalk/internal/graph"
)

// Engine micro-benchmarks. These isolate the simulator's own hot loop —
// scheduling, queueing, delivery — from algorithm logic, so allocation
// discipline and per-round overhead are visible directly (run with
// -benchmem; the acceptance bar for engine refactors is allocs/op).

// benchBurst floods k messages down one edge (queue churn, serialization).
type benchBurst struct {
	k   int
	got int
}

func (p *benchBurst) Init(ctx *Ctx) {
	if ctx.Node() != 0 {
		return
	}
	for i := 0; i < p.k; i++ {
		Send(ctx, 1, intPayload(i))
	}
}

func (p *benchBurst) Step(ctx *Ctx) {
	p.got += len(ctx.Inbox())
}

func BenchmarkEngineBurst(b *testing.B) {
	g, err := graph.Path(2)
	if err != nil {
		b.Fatal(err)
	}
	net := NewNetwork(g, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := &benchBurst{k: 64}
		if _, err := net.Run(p); err != nil {
			b.Fatal(err)
		}
		if p.got != 64 {
			b.Fatalf("delivered %d of 64", p.got)
		}
	}
}

// benchToken forwards a single token for `hops` random steps — the
// steady-state shape of every walk protocol (1 active edge, 1 message per
// round, sparse step set) — addressed by NodeID through SendTo or, with
// byPort, by the drawn port through SendPort.
type benchToken struct {
	hops   int
	byPort bool
}

func (p *benchToken) send(ctx *Ctx, rem int) {
	port := ctx.RNG().Intn(ctx.Degree())
	if p.byPort {
		ctx.SendPort(port, intPayload(0).Kind(), 1, uint64(rem), 0, 0, 0)
		return
	}
	ctx.SendTo(ctx.Neighbors()[port].To, intPayload(0).Kind(), 1, uint64(rem), 0, 0, 0)
}

func (p *benchToken) Init(ctx *Ctx) {
	if ctx.Node() == 0 {
		p.send(ctx, p.hops-1)
	}
}

func (p *benchToken) Step(ctx *Ctx) {
	for _, m := range ctx.Inbox() {
		if rem := int(As[intPayload](m)); rem > 0 {
			p.send(ctx, rem-1)
		}
	}
}

func BenchmarkEngineTokenWalk(b *testing.B) {
	g, err := graph.Torus(16, 16)
	if err != nil {
		b.Fatal(err)
	}
	for _, byPort := range []bool{false, true} {
		name := "to"
		if byPort {
			name = "port"
		}
		b.Run(name, func(b *testing.B) {
			net := NewNetwork(g, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := net.Run(&benchToken{hops: 1024, byPort: byPort}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchFlood has every node broadcast to all neighbors for `rounds` rounds
// (dense active set: every edge busy every round).
type benchFlood struct {
	rounds int
}

func (p *benchFlood) Init(ctx *Ctx) {
	for _, h := range ctx.Neighbors() {
		Send(ctx, h.To, intPayload(p.rounds-1))
	}
}

func (p *benchFlood) Step(ctx *Ctx) {
	in := ctx.Inbox()
	if len(in) == 0 {
		return
	}
	rem := int(As[intPayload](in[0]))
	if rem <= 0 {
		return
	}
	for _, h := range ctx.Neighbors() {
		Send(ctx, h.To, intPayload(rem-1))
	}
}

func BenchmarkEngineFlood(b *testing.B) {
	g, err := graph.Torus(16, 16)
	if err != nil {
		b.Fatal(err)
	}
	net := NewNetwork(g, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.Run(&benchFlood{rounds: 16}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineTreeSweeps measures the tree primitives that Phase 2
// stitching leans on (4 sweeps per SAMPLE-DESTINATION call).
func BenchmarkEngineTreeSweeps(b *testing.B) {
	g, err := graph.Torus(16, 16)
	if err != nil {
		b.Fatal(err)
	}
	net := NewNetwork(g, 1)
	tree, _, err := BuildBFSTree(net, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Broadcast(net, tree, []Message{intPayload(7).msg()}, nil); err != nil {
			b.Fatal(err)
		}
		if _, _, err := Convergecast(net, tree,
			func(v graph.NodeID) Message { return intPayload(v).msg() },
			sumInts,
		); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineBFSBuild(b *testing.B) {
	g, err := graph.Torus(16, 16)
	if err != nil {
		b.Fatal(err)
	}
	net := NewNetwork(g, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := BuildBFSTree(net, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineShardedFlood measures the sharded round loop against the
// sequential engine on the same heavy-fan-out workload (every node
// forwarding every received token): the barrier + transfer-buffer overhead
// is visible at shards > 1 on one core, and the speedup on many.
func BenchmarkEngineShardedFlood(b *testing.B) {
	g, err := graph.Torus(32, 32)
	if err != nil {
		b.Fatal(err)
	}
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			net := NewNetwork(g, 1, WithShards(shards))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net.Reseed(1)
				p := (&stressProto{seeds: 4, hops: 64}).prepare(g.N())
				if _, err := net.Run(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
