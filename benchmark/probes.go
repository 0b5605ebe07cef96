package main

import (
	"context"
	"fmt"
	"time"

	"distwalk/internal/cache"
	"distwalk/internal/congest"
	"distwalk/internal/core"
	"distwalk/internal/graph"
	"distwalk/internal/wire"
)

// The probes time single layers on fixed inputs: the workload's graph, a
// benchmark-owned flood protocol, a resident cache key, one wire round
// trip. They say what a layer costs per unit of its own work, where the
// replay says how much of a request it takes.

type floodPayload int32

func (floodPayload) Words() int   { return 1 }
func (floodPayload) Kind() uint16 { return 1 }
func (p floodPayload) Encode() [congest.PayloadWords]uint64 {
	return [congest.PayloadWords]uint64{uint64(uint32(p))}
}
func (floodPayload) Decode(w [congest.PayloadWords]uint64) floodPayload {
	return floodPayload(int32(uint32(w[0])))
}

// flood has every node send to every neighbour for a fixed number of
// rounds: every directed edge busy every round, no protocol logic, so the
// time per delivered message is the round engine's own.
type flood struct{ rounds int }

func (p *flood) Init(ctx *congest.Ctx) {
	for _, h := range ctx.Neighbors() {
		congest.Send(ctx, h.To, floodPayload(p.rounds-1))
	}
}

func (p *flood) Step(ctx *congest.Ctx) {
	in := ctx.Inbox()
	if len(in) == 0 {
		return
	}
	rem := congest.As[floodPayload](in[0])
	if rem <= 0 {
		return
	}
	for _, h := range ctx.Neighbors() {
		congest.Send(ctx, h.To, rem-1)
	}
}

// floodMessages is how many messages one flood run delivers, give or take
// a round.
const floodMessages = 200_000

// probeReps is the repetition count of the tight-loop cache probes.
const probeReps = 10_000

// medianOf times f reps times and returns the median, in ns.
func medianOf(reps int, f func() error) (float64, error) {
	ds := make([]float64, reps)
	for i := range ds {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ds[i] = float64(time.Since(t0))
	}
	return quantile(ds, 0.5), nil
}

// floodNS returns ns per delivered message of the flood on net.
func floodNS(net *congest.Network, messages int) (float64, error) {
	p := &flood{rounds: max(messages/(2*net.Graph().M()), 4)}
	var msgs int64
	ns, err := medianOf(3, func() error {
		res, err := net.Run(p)
		msgs = res.Messages
		return err
	})
	if err != nil || msgs == 0 {
		return 0, fmt.Errorf("flood: %d messages: %v", msgs, err)
	}
	return ns / float64(msgs), nil
}

// probeLayers measures every layer probe on graph g and adds the results
// to out. small cuts the repetition for the smoke test.
func probeLayers(ctx context.Context, out map[string]float64, g *graph.G, chords []graph.EdgeEdit, seed uint64, small bool) error {
	var err error
	set := func(name string, scale float64) func(float64, error) error {
		return func(v float64, e error) error {
			out[name] = v / scale
			return e
		}
	}
	messages, reps := floodMessages, probeReps
	if small {
		messages, reps = messages/50, reps/50
	}
	var net *congest.Network
	set("congest.new_network_ms", 1e6)(medianOf(5, func() error { net = congest.NewNetwork(g, seed); return nil }))
	set("congest.reseed_us", 1e3)(medianOf(21, func() error { net.Reseed(seed + 1); return nil }))

	// The walker's per-request fixed costs: Reset, then the BFS tree every
	// walk from a new source starts with.
	wkr, err := core.NewWalkerOn(net, core.DefaultParams())
	if err != nil {
		return err
	}
	var resetNS, prepNS []float64
	for i := 0; i < 7; i++ {
		t0 := time.Now()
		if err := wkr.Reset(core.DefaultParams()); err != nil {
			return err
		}
		t1 := time.Now()
		if _, err := wkr.Prepare(graph.NodeID(i * g.N() / 7)); err != nil {
			return err
		}
		resetNS, prepNS = append(resetNS, float64(t1.Sub(t0))), append(prepNS, float64(time.Since(t1)))
	}
	out["core.reset_us"], out["core.prepare_us"] = quantile(resetNS, 0.5)/1e3, quantile(prepNS, 0.5)/1e3

	// The same flood through each execution mode of the round engine.
	if err = set("congest.flood_ns_per_msg.seq", 1)(floodNS(net, messages)); err != nil {
		return err
	}
	net.SetShards(2)
	if err = set("congest.flood_ns_per_msg.sharded", 1)(floodNS(net, messages)); err != nil {
		return err
	}
	net.SetShards(1)
	group, bounds, err := congest.NewLoopbackGroup(g, clusterEngines, 1, nil)
	if err != nil {
		return err
	}
	if err := net.ConnectRemote(group, bounds); err != nil {
		return err
	}
	if err = set("congest.flood_ns_per_msg.loopback", 1)(floodNS(net, messages)); err != nil {
		return err
	}
	if err := probeWire(out, net, g, seed, messages); err != nil {
		return err
	}
	net.ConnectRemote(nil, nil)

	// A mutation's two halves: the copy-on-write graph edit, and pointing a
	// warm network at the result.
	if chords == nil {
		n := graph.NodeID(g.N())
		chords = []graph.EdgeEdit{{U: 0, V: n / 2}, {U: n / 4, V: n/4 + n/2}}
	}
	var editNS, reshapeNS []float64
	cur := g
	for i := 0; i < 8; i++ {
		remove, add := []graph.EdgeEdit(nil), chords
		if i%2 == 1 {
			remove, add = chords, nil
		}
		t0 := time.Now()
		next, err := cur.ApplyEdits(remove, add)
		if err != nil {
			return err
		}
		t1 := time.Now()
		if _, err := net.Reshape(next); err != nil {
			return err
		}
		editNS, reshapeNS = append(editNS, float64(t1.Sub(t0))), append(reshapeNS, float64(time.Since(t1)))
		cur = next
	}
	out["graph.apply_edits_us"], out["congest.reshape_us"] = quantile(editNS, 0.5)/1e3, quantile(reshapeNS, 0.5)/1e3

	return probeCache(ctx, out, reps)
}

// probeWire measures the TCP transport against two loopback engines of
// its own: the handshake, one round's four-frame exchange empty and with a
// 256-message batch, and the flood through real sessions.
func probeWire(out map[string]float64, net *congest.Network, g *graph.G, seed uint64, messages int) error {
	engines, err := startEngines(clusterEngines)
	if err != nil {
		return err
	}
	defer stopEngines(engines)
	conns := make([]*wire.EngineConn, len(engines))
	group := make([]congest.RemoteShard, len(engines))
	var hello wire.Hello
	var dialNS []float64
	for round := 0; round < 3; round++ { // the first dial pins the server's graph digest
		for i, e := range engines {
			if conns[i] != nil {
				conns[i].Close()
			}
			hello = wire.HelloFor(g, len(engines), i, 1, seed, nil)
			hello.Gen = 1
			t0 := time.Now()
			c, err := wire.DialEngine(e.addr, hello)
			if err != nil {
				return err
			}
			dialNS = append(dialNS, float64(time.Since(t0)))
			conns[i], group[i] = c, c
		}
	}
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	out["wire.handshake_ms"] = quantile(dialNS, 0.5) / 1e6

	// One round against engine 0: push barrier, then delivery.
	c := conns[0]
	var batch []congest.Message
	for v := graph.NodeID(hello.Bounds[0]); v < graph.NodeID(hello.Bounds[1]) && len(batch) < 256; v++ {
		seen := map[graph.NodeID]bool{}
		for _, h := range g.Neighbors(v) {
			if !seen[h.To] && len(batch) < 256 { // one message per directed edge: all deliver in one round
				seen[h.To] = true
				batch = append(batch, congest.MakeMessage(v, h.To, 1, 1, [congest.PayloadWords]uint64{}))
			}
		}
	}
	round := 0
	var buf []congest.Message
	cycle := func(msgs []congest.Message) func() error {
		return func() error {
			round++
			if err := c.SendPushes(round, msgs); err != nil {
				return err
			}
			if _, err := c.ReadPushAck(); err != nil {
				return err
			}
			if err := c.SendDeliver(round); err != nil {
				return err
			}
			buf, err = c.ReadBuffer(buf[:0])
			if err == nil && len(buf) != len(msgs) {
				err = fmt.Errorf("%w: pushed %d messages, %d came back", errIncorrect, len(msgs), len(buf))
			}
			return err
		}
	}
	if err := c.RunBegin(); err != nil {
		return err
	}
	empty, err := medianOf(201, cycle(nil))
	if err != nil {
		return err
	}
	full, err := medianOf(201, cycle(batch))
	if err != nil {
		return err
	}
	if _, err := c.FinishRun(); err != nil {
		return err
	}
	out["wire.rtt_us"] = empty / 1e3
	out["wire.ns_per_msg"] = (full - empty) / float64(len(batch))

	if err := net.ConnectRemote(group, hello.Bounds); err != nil {
		return err
	}
	before := conns[0].Stats()
	if out["congest.flood_ns_per_msg.tcp"], err = floodNS(net, messages); err != nil {
		return err
	}
	after := conns[0].Stats()
	out["wire.bytes_per_msg"] = float64(after.BytesIn+after.BytesOut-before.BytesIn-before.BytesOut) /
		float64(after.MsgsIn+after.MsgsOut-before.MsgsIn-before.MsgsOut)
	return nil
}

// probeCache times the cache's three operations in isolation: building a
// request digest, a lookup that hits, and the miss path (lead a flight,
// publish a stub execution).
func probeCache(ctx context.Context, out map[string]float64, reps int) error {
	cc, err := cache.New(cache.Config{MaxBytes: cacheBytes})
	if err != nil {
		return err
	}
	rp := &replayer{gen: 1}
	srcs := make([]graph.NodeID, 8)
	keys := make([]cache.Key, hotKeys+reps)
	digest := func() {
		for i := range keys {
			keys[i] = rp.digest(&request{kind: kMany, key: uint64(i), srcs: srcs, ell: 1024})
		}
	}
	digest() // warm: the first digests pay for the hasher's code and heap
	t0 := time.Now()
	digest()
	digestNS := float64(time.Since(t0)) / float64(len(keys))
	stub := outcome{}
	publish := func(k cache.Key) error {
		_, f, o := cc.Begin(k)
		if o != cache.Miss {
			return fmt.Errorf("%w: fresh key resolved as a %v", errIncorrect, o)
		}
		cc.Finish(k, f, cache.Execution{Value: &stub, Bytes: entryBytes}, nil)
		return nil
	}
	for _, k := range keys[:hotKeys] {
		if err := publish(k); err != nil {
			return err
		}
	}
	t0 = time.Now()
	for i := 0; i < reps; i++ {
		if _, o, _ := cc.Do(ctx, keys[i%hotKeys], nil); o != cache.Hit {
			return fmt.Errorf("%w: resident key %d resolved as a %v", errIncorrect, i%hotKeys, o)
		}
	}
	hitNS := float64(time.Since(t0)) / float64(reps)
	t0 = time.Now()
	for _, k := range keys[hotKeys:] {
		if err := publish(k); err != nil {
			return err
		}
	}
	missNS := float64(time.Since(t0)) / float64(reps)
	out["cache.digest_ns"], out["cache.lookup_hit_ns"], out["cache.lookup_miss_ns"] = digestNS, hitNS, missNS
	return nil
}
