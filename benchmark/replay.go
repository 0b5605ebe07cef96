package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"distwalk/internal/cache"
	"distwalk/internal/congest"
	"distwalk/internal/core"
	"distwalk/internal/graph"
	"distwalk/internal/mixing"
	"distwalk/internal/rng"
	"distwalk/internal/sched"
	"distwalk/internal/spanning"
	"distwalk/internal/wire"
)

// This PR may not edit the program, so the layers are measured from
// outside: the replayer pushes a traced window's requests through the
// same exported functions the Service calls, in the same order, on warm
// state of its own (one network and walker per Service worker, a cache, a
// scheduler), with a span around each call. Its results are bit-identical
// to the Service's, which the replay checks.

// lane is one worker's warm state, as the Service keeps per pool worker.
type lane struct {
	net   *congest.Network
	wkr   *core.Walker
	conns []*wire.EngineConn
	wire  *wireClock // cluster mode: time spent inside the transport
}

// wireClock sums the time the round loop spends inside RemoteShard calls.
// A walk makes hundreds of thousands of them, so they are recorded as one
// aggregate child span per walk, not one span per call.
type wireClock struct{ ns time.Duration }

type tracedShard struct {
	inner congest.RemoteShard
	clk   *wireClock
}

func (t tracedShard) timed(t0 time.Time) { t.clk.ns += time.Since(t0) }

func (t tracedShard) RunBegin() error { defer t.timed(time.Now()); return t.inner.RunBegin() }
func (t tracedShard) SendPushes(round int, msgs []congest.Message) error {
	defer t.timed(time.Now())
	return t.inner.SendPushes(round, msgs)
}
func (t tracedShard) ReadPushAck() (int, error) {
	defer t.timed(time.Now())
	return t.inner.ReadPushAck()
}
func (t tracedShard) SendDeliver(round int) error {
	defer t.timed(time.Now())
	return t.inner.SendDeliver(round)
}
func (t tracedShard) ReadBuffer(buf []congest.Message) ([]congest.Message, error) {
	defer t.timed(time.Now())
	return t.inner.ReadBuffer(buf)
}
func (t tracedShard) FinishRun() (congest.RemoteResult, error) {
	defer t.timed(time.Now())
	return t.inner.FinishRun()
}

// replayStats are the exact counts the replay collects beside its spans.
type replayStats struct {
	engineNS           float64 // time inside calls that drive the round engine
	msgs, rounds       int64   // simulated cost of those calls
	breakdown          core.Breakdown
	rstRounds, rstN    int64
	mixRounds, mixN    int64
	mismatches, checks int
}

type replayer struct {
	tr    *tracer
	wl    *workload
	in    *instance
	lanes [][]*lane // lanes[svc][worker]
	topo  []*graph.G
	cc    *cache.Cache
	gen   uint64
	on    bool // chords present
	mu    sync.Mutex
	st    replayStats
}

// newReplayer builds warm state matching the instance's Services at the
// start of the window to replay (chordsOn: the topology the window starts
// from).
func newReplayer(tr *tracer, wl *workload, in *instance, chordsOn bool) (*replayer, error) {
	rp := &replayer{tr: tr, wl: wl, in: in, gen: 1, on: chordsOn}
	for i, svc := range in.svcs {
		g := in.graphs[i]
		if chordsOn {
			var err error
			if g, err = g.ApplyEdits(nil, in.chords); err != nil {
				return nil, err
			}
		}
		rp.topo = append(rp.topo, g)
		lanes := make([]*lane, svc.Workers())
		for j := range lanes {
			ln := &lane{net: congest.NewNetwork(g, in.seed, congest.WithShards(svc.Shards()))}
			if svc.Cluster() > 0 {
				if err := rp.connect(ln, g); err != nil {
					rp.close()
					return nil, err
				}
			}
			lanes[j] = ln
		}
		rp.lanes = append(rp.lanes, lanes)
	}
	if in.cached {
		var err error
		if rp.cc, err = cache.New(cache.Config{MaxBytes: cacheBytes}); err != nil {
			return nil, err
		}
	}
	return rp, nil
}

// connect opens the lane's own sessions with the instance's loopback
// engines and routes its network through them.
func (rp *replayer) connect(ln *lane, g *graph.G) error {
	ln.wire = &wireClock{}
	group := make([]congest.RemoteShard, len(rp.in.engines))
	var bounds []int32
	for i, e := range rp.in.engines {
		h := wire.HelloFor(g, len(rp.in.engines), i, 1, rp.in.seed, nil)
		h.Gen = 1
		c, err := wire.DialEngine(e.addr, h)
		if err != nil {
			return err
		}
		ln.conns = append(ln.conns, c)
		group[i] = tracedShard{inner: c, clk: ln.wire}
		bounds = h.Bounds
	}
	return ln.net.ConnectRemote(group, bounds)
}

func (rp *replayer) close() {
	for _, lanes := range rp.lanes {
		for _, ln := range lanes {
			if ln == nil {
				continue
			}
			for _, c := range ln.conns {
				c.Close()
			}
		}
	}
}

func (rp *replayer) span(parent, req int, name string, f func() error) error {
	id := rp.tr.begin(parent, req, name)
	err := f()
	rp.tr.end(id)
	return err
}

// prepare mirrors Service.prepare: reshape a network whose topology
// trails the request's, reseed it from (service seed, key), and reset the
// warm walker (or build it: the first request, and every request after a
// reshape).
func (rp *replayer) prepare(parent, req int, ln *lane, g *graph.G, seed uint64) error {
	if ln.net.Graph() != g {
		if err := rp.span(parent, req, "congest.reshape", func() error {
			_, err := ln.net.Reshape(g)
			return err
		}); err != nil {
			return err
		}
		ln.wkr = nil
	}
	rp.span(parent, req, "congest.reseed", func() error { ln.net.Reseed(seed); return nil })
	ln.net.SetMaxRounds(congest.DefaultMaxRounds)
	if ln.wkr == nil {
		return rp.span(parent, req, "core.new_walker", func() (err error) {
			ln.wkr, err = core.NewWalkerOn(ln.net, core.DefaultParams())
			return err
		})
	}
	return rp.span(parent, req, "core.reset", func() error { return ln.wkr.Reset(core.DefaultParams()) })
}

// engine times one call that drives the round engine: a span of the given
// name, and in cluster mode a child span for the time the call spent
// inside the transport.
func (rp *replayer) engine(parent, req int, ln *lane, name string, call func() error) error {
	if ln.wire != nil {
		ln.wire.ns = 0
	}
	t0 := time.Now()
	id := rp.tr.begin(parent, req, name)
	err := call()
	rp.tr.end(id)
	if ln.wire != nil && id != 0 {
		rp.tr.add(id, req, "wire.exchange", t0, ln.wire.ns)
	}
	rp.mu.Lock()
	rp.st.engineNS += float64(time.Since(t0))
	rp.mu.Unlock()
	return err
}

// execute runs one request's engine work on ln, as Service.execute does.
// A walk's BFS tree is built by a Walker.Prepare call of its own, so that
// the O(n) tree and the walk proper get a span each; the walk then finds
// its tree in place, and the two costs add up to the Service's.
func (rp *replayer) execute(parent, req int, r *request, ln *lane) (outcome, error) {
	seed := rng.New(rp.in.seed).Stream(r.key).Uint64() // distwalk.deriveSeed
	if err := rp.prepare(parent, req, ln, rp.topo[r.svc], seed); err != nil {
		return outcome{}, err
	}
	n := rp.topo[r.svc].N()
	out := outcome{digest: fnvBasis}
	var cost congest.Result
	tree := func(root graph.NodeID) error {
		return rp.engine(parent, req, ln, "congest.bfs_tree", func() (err error) {
			cost, err = ln.wkr.Prepare(root)
			rp.st.breakdown.TreeBuild += cost.Rounds
			return err
		})
	}
	var err error
	switch r.kind {
	case kSingle:
		if err = tree(r.src); err != nil {
			break
		}
		err = rp.engine(parent, req, ln, "core.walk", func() error {
			res, err := ln.wkr.SingleRandomWalk(r.src, r.ell)
			if err != nil {
				return err
			}
			cost.Add(res.Cost)
			rp.addBreakdown(res.Breakdown)
			out, err = walkOutcome(res, n, r.ell)
			return err
		})
	case kMany:
		if err = tree(r.srcs[0]); err != nil {
			break
		}
		err = rp.engine(parent, req, ln, "core.walk", func() error {
			res, err := ln.wkr.ManyRandomWalks(r.srcs, r.ell)
			if err != nil {
				return err
			}
			cost.Add(res.Cost)
			for _, w := range res.Walks {
				o, err := walkOutcome(w, n, r.ell)
				if err != nil {
					return err
				}
				out.digest = fnv(out.digest, o.digest)
			}
			return nil
		})
	case kRST:
		err = rp.engine(parent, req, ln, "spanning.rst", func() error {
			res, err := spanning.RandomSpanningTree(ln.wkr, r.src, spanning.Options{})
			if err != nil {
				return err
			}
			cost = res.Cost
			rp.st.rstRounds += int64(cost.Rounds)
			rp.st.rstN++
			for _, p := range res.Parent {
				out.digest = fnv(out.digest, uint64(p))
			}
			return nil
		})
	case kMix:
		err = rp.engine(parent, req, ln, "mixing.tau", func() error {
			res, err := mixing.EstimateTau(ln.wkr, r.src, mixing.Options{})
			if err != nil {
				return err
			}
			cost = res.Cost
			rp.st.mixRounds += int64(cost.Rounds)
			rp.st.mixN++
			out.digest = fnv(fnvBasis, uint64(res.Tau))
			return nil
		})
	default:
		err = fmt.Errorf("replay: request kind %d has no engine work", r.kind)
	}
	if err != nil {
		return outcome{}, err
	}
	out.rounds, out.msgs = cost.Rounds, cost.Messages
	rp.mu.Lock()
	rp.st.msgs += cost.Messages
	rp.st.rounds += int64(cost.Rounds)
	rp.mu.Unlock()
	return out, nil
}

func (rp *replayer) addBreakdown(b core.Breakdown) {
	t := &rp.st.breakdown
	t.TreeBuild += b.TreeBuild
	t.Phase1 += b.Phase1
	t.Stitch += b.Stitch
	t.Refill += b.Refill
	t.Tail += b.Tail
	t.Report += b.Report
}

// digest builds a cache key the way Service.requestDigest does: the same
// fields in the same order, so the digest's cost is the Service's.
func (rp *replayer) digest(r *request) cache.Key {
	d := cache.NewDigest()
	d.U64(rp.gen)
	d.U64(uint64(r.kind) + 1)
	d.U64(r.key)
	p := core.DefaultParams()
	d.F64(p.LambdaC)
	d.I64(int64(p.Lambda))
	d.I64(int64(p.Eta))
	d.Bool(p.Theory)
	d.Bool(p.FixedLength)
	d.Bool(p.UniformCounts)
	d.Bool(p.PerCallBFS)
	d.Bool(p.Metropolis)
	d.I64(0) // round budget
	d.I64(0) // retry budget
	d.Bool(false)
	if r.kind == kMany {
		d.I64(int64(len(r.srcs)))
		for _, s := range r.srcs {
			d.I64(int64(s))
		}
	} else {
		d.I64(int64(r.src))
	}
	d.I64(int64(r.ell))
	return d.Key()
}

// entryBytes is what the stub entries are charged; the real figure is the
// Service's deep size estimate, of the same order for these results.
const entryBytes = 4 << 10

// store offers a finished execution to the cache, as Service.doCached's
// leader does.
func (rp *replayer) store(k cache.Key, f *cache.Flight, out outcome, err error) {
	rp.cc.Finish(k, f, cache.Execution{Value: &out, Bytes: entryBytes, Rounds: int64(out.rounds)}, err)
}

// prefill makes the window's known answers resident without executing
// them (the Service pre-filled its cache during setup).
func (rp *replayer) prefill(seen map[uint64]outcome) {
	for i := range rp.in.reqs {
		r := &rp.in.reqs[i]
		if out, ok := seen[r.key]; ok && r.kind != kMutate {
			k := rp.digest(r)
			if _, f, o := rp.cc.Begin(k); o == cache.Miss {
				rp.store(k, f, out, nil)
			}
		}
	}
}

// mutate mirrors ApplyMutations: a copy-on-write successor graph, the
// next generation, a purged cache. The reshape is paid by the next
// request that executes, as in the Service.
func (rp *replayer) mutate(parent, req int) error {
	remove, add := []graph.EdgeEdit(nil), rp.in.chords
	if rp.on {
		remove, add = rp.in.chords, nil
	}
	err := rp.span(parent, req, "graph.apply_edits", func() (err error) {
		rp.topo[0], err = rp.topo[0].ApplyEdits(remove, add)
		return err
	})
	rp.on = !rp.on
	rp.gen++
	rp.span(parent, req, "cache.purge", func() error { rp.cc.Purge(); return nil })
	return err
}

// request replays request i on worker 0's lane, through the cache when
// the Service has one.
func (rp *replayer) request(i int, r *request) (outcome, error) {
	req := i + 1
	root := rp.tr.begin(0, req, spanReplay)
	defer rp.tr.end(root)
	if r.kind == kMutate {
		return outcome{}, rp.mutate(root, req)
	}
	ln := rp.lanes[r.svc][0]
	if rp.cc == nil {
		return rp.execute(root, req, r, ln)
	}
	var k cache.Key
	rp.span(root, req, "cache.digest", func() error { k = rp.digest(r); return nil })
	id := rp.tr.begin(root, req, "cache.lookup")
	v, f, o := rp.cc.Begin(k)
	rp.tr.end(id)
	if o == cache.Hit {
		return *v.(*outcome), nil
	}
	out, err := rp.execute(root, req, r, ln)
	rp.span(root, req, "cache.store", func() error { rp.store(k, f, out, err); return nil })
	return out, err
}

// closed replays a closed-loop window request by request and compares
// each answer with the Service's.
func (rp *replayer) closed(w *window) error {
	if rp.cc != nil && rp.in.chords == nil {
		rp.prefill(w.seen)
	}
	for i := w.from; i < w.to; i++ {
		r := &rp.in.reqs[i%len(rp.in.reqs)]
		out, err := rp.request(i, r)
		if err != nil {
			return fmt.Errorf("replay of request %d: %w", i, err)
		}
		// The chord topology is rebuilt from the base graph here but
		// reached by many toggles in the Service; equal in content, not
		// compared bit for bit.
		if want, ok := w.seen[r.key]; ok && r.kind != kMutate && rp.in.chords == nil {
			rp.st.checks++
			if out != want {
				rp.st.mismatches++
			}
		}
	}
	if rp.st.mismatches > 0 {
		return fmt.Errorf("%w: %d of %d replayed requests differ from the Service's answers", errIncorrect, rp.st.mismatches, rp.st.checks)
	}
	return nil
}

// batchMark is when a replayed batch started executing, by batch seed.
type batchMark struct {
	start, reseeded, prepared time.Time
}

// open replays an open-loop window: a scheduler of the Service's
// configuration, driven on the same arrival schedule, whose executor
// stamps the start of execution and runs the batch on a free lane. Each
// request's replay root spans submit to answer; under it sit its queue
// wait and the (shared) intervals of the batch that served it.
func (rp *replayer) open(ctx context.Context, w *window) error {
	lanes := rp.lanes[0]
	free := make(chan *lane, len(lanes))
	for _, ln := range lanes {
		free <- ln
	}
	var marks sync.Map // batch seed -> batchMark
	exec := func(b *sched.Batch) {
		ln := <-free
		defer func() { free <- ln }()
		var m batchMark
		m.start = time.Now()
		ln.net.Reseed(b.Seed)
		m.reseeded = time.Now()
		ln.net.SetMaxRounds(congest.DefaultMaxRounds)
		var err error
		if ln.wkr == nil {
			ln.wkr, err = core.NewWalkerOn(ln.net, b.Params)
		} else {
			err = ln.wkr.Reset(b.Params)
		}
		if err != nil {
			b.Abort(err)
			return
		}
		m.prepared = time.Now()
		marks.Store(b.Seed, m)
		b.Execute(ln.wkr)
	}
	s := sched.New(rp.in.seed, sched.Config{MaxBatch: batchSize, MaxDelay: batchDelay, MaxInFlight: len(lanes)}, exec)
	defer s.Close()
	errs := make([]error, w.to-w.from)
	var wg sync.WaitGroup
	start := time.Now()
	for i := w.from; i < w.to; i++ {
		time.Sleep(time.Until(rp.wl.due(start, i-w.from)))
		r := &rp.in.reqs[i%len(rp.in.reqs)]
		req := i + 1
		root := rp.tr.begin(0, req, spanReplay)
		submitted := time.Now()
		ch, err := s.Submit(ctx, sched.Request{Key: r.key, Source: r.src, Ell: r.ell, Params: core.DefaultParams()})
		if err != nil {
			rp.tr.end(root)
			continue // refused, as the Service may refuse: counted there
		}
		wg.Add(1)
		go func(slot *error) {
			defer wg.Done()
			res := <-ch
			done := time.Now()
			rp.tr.end(root)
			if res.Err != nil {
				*slot = res.Err
				return
			}
			v, _ := marks.Load(res.Batch.Seed)
			m := v.(batchMark)
			rp.tr.add(root, req, "sched.queue_wait", submitted, m.start.Sub(submitted))
			rp.tr.add(root, req, "congest.reseed", m.start, m.reseeded.Sub(m.start))
			rp.tr.add(root, req, "core.reset", m.reseeded, m.prepared.Sub(m.reseeded))
			rp.tr.add(root, req, "core.walk", m.prepared, done.Sub(m.prepared))
			rp.mu.Lock()
			rp.st.engineNS += float64(done.Sub(m.prepared)) / float64(res.Batch.Size)
			rp.st.msgs += res.Batch.Amortized.Messages
			rp.st.rounds += int64(res.Batch.Amortized.Rounds)
			rp.addBreakdown(res.Walk.Breakdown)
			rp.mu.Unlock()
		}(&errs[i-w.from])
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("replay of request %d: %w", w.from+i, err)
		}
	}
	return nil
}

// replay re-executes window w through the layers and returns the counts.
func replay(ctx context.Context, tr *tracer, wl *workload, in *instance, w *window, chordsOn bool) (replayStats, error) {
	rp, err := newReplayer(tr, wl, in, chordsOn)
	if err != nil {
		return replayStats{}, err
	}
	defer rp.close()
	if wl.rate > 0 {
		err = rp.open(ctx, w)
	} else {
		err = rp.closed(w)
	}
	return rp.st, err
}
