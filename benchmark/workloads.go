package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"sort"
	"time"

	"distwalk"
	"distwalk/internal/rng"
	"distwalk/internal/wire"
)

// The load is the same on every machine: at most two client goroutines and
// two Service workers or shards, never GOMAXPROCS.
const (
	serveRate      = 8.0 // serve-open arrival rate, requests per second
	serveBurst     = 2   // serve-open: this many users arrive at the same instant
	serveEll       = 1024
	churnPeriod    = 100 // cache-churn: every churnPeriod-th request is a mutation
	churnKeys      = 512
	churnZipf      = 1.2
	hotKeys        = 16
	cacheBytes     = 64 << 20
	batchSize      = 8
	batchDelay     = 10 * time.Millisecond
	clusterEngines = 2
)

type kind uint8

const (
	kSingle kind = iota // SingleRandomWalk
	kMany               // ManyRandomWalks
	kRST                // RandomSpanningTree
	kMix                // EstimateMixingTime
	kSubmit             // SubmitWalk, then wait for the handle
	kMutate             // ApplyMutations toggling the chord edges
)

// request is one generated input. The program under test receives only
// these fields (and the graph); the seed that made them stays here.
type request struct {
	kind kind
	svc  int // index into instance.svcs
	key  uint64
	src  distwalk.NodeID   // source, root or x
	srcs []distwalk.NodeID // kMany sources
	ell  int
}

// outcome is what a response is compared by: a digest of its payload
// (destinations, tree parents, τ) and its exact simulated cost.
type outcome struct {
	digest uint64
	rounds int
	msgs   int64
}

// errIncorrect marks a correctness violation: the run exits non-zero.
// Every other request error is a failure, counted and reported.
var errIncorrect = errors.New("incorrect output")

type workload struct {
	name    string
	clients int
	chunk   int // requests per pass; cut by 50 when small
	period  int // a pass is a whole number of periods of the request list
	// countReqs leading requests of a window are the ones rounds_per_req and
	// msgs_per_req cover: few enough that every run reaches them.
	countReqs int
	rate      float64 // > 0: open loop at this many requests per second
	burst     int     // open loop: requests due at the same instant
	// perKey: a response is a pure function of its key (and the topology
	// generation), so a repeated key must repeat its outcome.
	perKey bool
	// refReqs leading requests of the measured window are re-executed on a
	// plain sequential in-process Service and must agree bit for bit.
	refReqs int
	// dominant lists the layers one of which must lead the self-time table.
	dominant []string
	build    func(seed uint64, small bool) (*instance, error)
	// verify checks the Service's counters over a window [from, to).
	verify func(in *instance, from, to int, before, after distwalk.ServiceStats) error
}

var workloads = []*workload{
	{name: "seq-walks", clients: 1, chunk: 2, period: 1, countReqs: 8, perKey: true, refReqs: 1, dominant: []string{"core"},
		build: func(seed uint64, small bool) (*instance, error) { return buildWalks(seed, small) }},
	{name: "shard-walks", clients: 1, chunk: 2, period: 1, countReqs: 8, perKey: true, refReqs: 1, dominant: []string{"core"},
		build: func(seed uint64, small bool) (*instance, error) {
			return buildWalks(seed, small, distwalk.WithShards(2))
		}},
	{name: "cluster-walks", clients: 1, chunk: 2, period: 1, countReqs: 16, perKey: true, refReqs: 1, dominant: []string{"wire"},
		build: buildCluster, verify: verifyCluster},
	{name: "apps", clients: 1, chunk: 30, period: 3, countReqs: 240, perKey: true, refReqs: 3, dominant: []string{"spanning", "mixing"},
		build: buildApps},
	{name: "serve-open", clients: 1, period: 1, countReqs: 64, rate: serveRate, burst: serveBurst, dominant: []string{"core"},
		build: buildServe},
	{name: "cache-hot", clients: 2, chunk: 100_000, period: 2, countReqs: 100_000, perKey: true, refReqs: 2, dominant: []string{"cache", "service"},
		build: buildCacheHot, verify: verifyCacheHot},
	{name: "cache-churn", clients: 1, chunk: 10 * churnPeriod, period: churnPeriod, countReqs: 50 * churnPeriod, perKey: true, dominant: []string{"graph", "congest"},
		build: buildCacheChurn, verify: verifyCacheChurn},
}

// due is when request i of an open-loop window starting at start is due:
// bursts of wl.burst simultaneous arrivals, wl.rate requests per second
// overall.
func (wl *workload) due(start time.Time, i int) time.Time {
	return start.Add(time.Duration(float64(i/wl.burst*wl.burst) / wl.rate * float64(time.Second)))
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// instance is one set-up workload: its Services, its request list (walked
// cyclically) and whatever else must be torn down.
type instance struct {
	seed    uint64  // the Services' seed
	graphNS float64 // time spent in the graph generators
	svcs    []*distwalk.Service
	graphs  []*distwalk.Graph // graphs[i] is what svcs[i] was built over
	cached  bool              // the Services carry a result cache
	reqs    []request
	warm    int // requests executed in setup, before anything is timed
	cursor  int // next request index

	engines []*engine // cluster-walks: loopback wire servers

	chords []distwalk.EdgeMutation // cache-churn: the edges kMutate toggles
	gen    int                     // mutations applied so far
}

// chordsOn reports whether the chord edges are present: every mutation
// toggles them, starting from absent.
func (in *instance) chordsOn() bool { return in.gen%2 == 1 }

// engine is a wire.Server served in-process on 127.0.0.1:0 — a loopback
// stand-in for a distwalkd process: same frames, same TCP stack, no
// subprocess to build or leak.
type engine struct {
	srv  *wire.Server
	addr string
	done chan error
}

func startEngine() (*engine, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("loopback engine: %w", err)
	}
	e := &engine{srv: wire.NewServer(wire.ServerConfig{PinShard: -1}), addr: ln.Addr().String(), done: make(chan error, 1)}
	go func() { e.done <- e.srv.Serve(ln) }()
	return e, nil
}

func (e *engine) stop() {
	e.srv.Close()
	<-e.done
}

func startEngines(n int) ([]*engine, error) {
	es := make([]*engine, 0, n)
	for i := 0; i < n; i++ {
		e, err := startEngine()
		if err != nil {
			stopEngines(es)
			return nil, err
		}
		es = append(es, e)
	}
	return es, nil
}

func stopEngines(es []*engine) {
	for _, e := range es {
		e.stop()
	}
}

func addrs(es []*engine) []string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = e.addr
	}
	return out
}

func (in *instance) close() {
	for _, s := range in.svcs {
		s.Close()
	}
	stopEngines(in.engines)
}

// addService builds one Service over g with the instance's seed.
func (in *instance) addService(g *distwalk.Graph, opts ...distwalk.Option) error {
	svc, err := distwalk.NewService(g, in.seed, opts...)
	if err != nil {
		return err
	}
	in.svcs = append(in.svcs, svc)
	in.graphs = append(in.graphs, g)
	return nil
}

// inputs is the seeded source of a workload's sources and keys.
type inputs struct {
	r       *rng.RNG
	nextKey uint64
}

func newInputs(seed uint64) *inputs {
	r := rng.New(seed)
	return &inputs{r: r, nextKey: r.Uint64() >> 8}
}

func (s *inputs) key() uint64 { s.nextKey++; return s.nextKey }

func (s *inputs) node(g *distwalk.Graph) distwalk.NodeID { return distwalk.NodeID(s.r.Intn(g.N())) }

// generate runs a graph generator and charges its time to graph.build_ms.
func (in *instance) generate(gen func() (*distwalk.Graph, error)) (*distwalk.Graph, error) {
	t0 := time.Now()
	g, err := gen()
	in.graphNS += float64(time.Since(t0))
	return g, err
}

func torus(side int) func() (*distwalk.Graph, error) {
	return func() (*distwalk.Graph, error) { return distwalk.Torus(side, side) }
}

func regular(n int, seed uint64) func() (*distwalk.Graph, error) {
	return func() (*distwalk.Graph, error) { return distwalk.RandomRegular(n, 4, seed) }
}

func pick(small bool, full, reduced int) int {
	if small {
		return reduced
	}
	return full
}

// newInstance starts an instance whose Services' seed and inputs both
// derive from the workload seed.
func newInstance(seed uint64, warm int, cached bool) (*instance, *inputs) {
	src := newInputs(seed)
	return &instance{seed: src.r.Uint64(), warm: warm, cached: cached}, src
}

func buildWalks(seed uint64, small bool, extra ...distwalk.Option) (*instance, error) {
	in, src := newInstance(seed, 1, false)
	g, err := in.generate(torus(pick(small, 48, 10)))
	if err != nil {
		return nil, err
	}
	for i := 0; i < 64; i++ {
		in.reqs = append(in.reqs, request{kind: kSingle, key: src.key(), src: src.node(g), ell: pick(small, 1024, 128)})
	}
	return in, in.addService(g, append([]distwalk.Option{distwalk.WithWorkers(1)}, extra...)...)
}

func manyReqs(src *inputs, g *distwalk.Graph, n, ell int) []request {
	reqs := make([]request, n)
	for i := range reqs {
		srcs := make([]distwalk.NodeID, 8)
		for j := range srcs {
			srcs[j] = src.node(g)
		}
		reqs[i] = request{kind: kMany, key: src.key(), srcs: srcs, ell: ell}
	}
	return reqs
}

func buildCluster(seed uint64, small bool) (*instance, error) {
	in, src := newInstance(seed, 1, false)
	g, err := in.generate(torus(pick(small, 16, 6)))
	if err != nil {
		return nil, err
	}
	in.reqs = manyReqs(src, g, 32, pick(small, 1024, 64))
	if in.engines, err = startEngines(clusterEngines); err != nil {
		return nil, err
	}
	if err := in.addService(g, distwalk.WithWorkers(1), distwalk.WithCluster(addrs(in.engines)...)); err != nil {
		in.close()
		return nil, err
	}
	return in, nil
}

func verifyCluster(in *instance, _, _ int, _, after distwalk.ServiceStats) error {
	if after.Cluster.Failovers != 0 {
		return fmt.Errorf("%w: %d requests failed over to in-process shards", errIncorrect, after.Cluster.Failovers)
	}
	for i, h := range after.Cluster.Health {
		if h != "healthy" {
			return fmt.Errorf("%w: engine %d is %s", errIncorrect, i, h)
		}
	}
	return nil
}

func buildApps(seed uint64, small bool) (*instance, error) {
	// The warm-up is a whole pass: a single tree's cover time varies too much
	// with its root for three requests to give a steady setup_s.
	in, src := newInstance(seed, pick(small, 30, 3), false)
	grid, err := in.generate(torus(pick(small, 8, 4)))
	if err != nil {
		return nil, err
	}
	expander, err := in.generate(regular(pick(small, 256, 32), 9))
	if err != nil {
		return nil, err
	}
	// Two trees to one estimate, so that the pooled median latency falls
	// inside the trees' tight mode (the torus looks the same from every
	// root). With an even mix it sits in the gap between the two kinds, and
	// with more estimates in their spread-out upper tail (an estimate's cost
	// steps with the number of doublings its source needs); either way it
	// jumps from seed to seed.
	for i := 0; i < 256; i++ {
		in.reqs = append(in.reqs,
			request{kind: kRST, svc: 0, key: src.key(), src: src.node(grid)},
			request{kind: kRST, svc: 0, key: src.key(), src: src.node(grid)},
			request{kind: kMix, svc: 1, key: src.key(), src: src.node(expander)})
	}
	if err := in.addService(grid, distwalk.WithWorkers(1)); err != nil {
		return nil, err
	}
	if err := in.addService(expander, distwalk.WithWorkers(1)); err != nil {
		in.close()
		return nil, err
	}
	return in, nil
}

func buildServe(seed uint64, small bool) (*instance, error) {
	in, src := newInstance(seed, batchSize, false)
	g, err := in.generate(regular(pick(small, 1024, 64), 11))
	if err != nil {
		return nil, err
	}
	for i := 0; i < 4096; i++ {
		in.reqs = append(in.reqs, request{kind: kSubmit, key: src.key(), src: src.node(g), ell: pick(small, serveEll, 64)})
	}
	return in, in.addService(g, distwalk.WithWorkers(2), distwalk.WithBatching(batchSize, batchDelay))
}

func buildCacheHot(seed uint64, small bool) (*instance, error) {
	// The warm-up executes every key once: the pre-fill.
	in, src := newInstance(seed, hotKeys, true)
	g, err := in.generate(torus(pick(small, 16, 6)))
	if err != nil {
		return nil, err
	}
	in.reqs = manyReqs(src, g, hotKeys, pick(small, 1024, 64))
	return in, in.addService(g, distwalk.WithWorkers(2), distwalk.WithResultCache(cacheBytes))
}

func verifyCacheHot(_ *instance, from, to int, before, after distwalk.ServiceStats) error {
	hits, misses := after.Cache.Hits-before.Cache.Hits, after.Cache.Misses-before.Cache.Misses
	if hits != int64(to-from) || misses != 0 {
		return fmt.Errorf("%w: %d requests gave %d hits and %d misses, want every one a hit", errIncorrect, to-from, hits, misses)
	}
	return nil
}

func buildCacheChurn(seed uint64, small bool) (*instance, error) {
	// The warm-up is a whole pass (an even number of toggles): how many of one
	// period's draws miss varies too much with the seed for a steady setup_s.
	in, src := newInstance(seed, pick(small, 10, 2)*churnPeriod, true)
	g, err := in.generate(torus(pick(small, 48, 10)))
	if err != nil {
		return nil, err
	}
	// Four fixed chords across the torus; toggling them changes the edge
	// index every worker network is built on and retires every cached key.
	n := distwalk.NodeID(g.N())
	for i := distwalk.NodeID(0); i < 4; i++ {
		in.chords = append(in.chords, distwalk.EdgeMutation{U: i * n / 8, V: i*n/8 + n/2})
	}
	// A key's source is a function of the key, so a repeated key is a
	// repeated request.
	base := src.key()
	sources := make([]distwalk.NodeID, churnKeys)
	for i := range sources {
		sources[i] = src.node(g)
	}
	src.nextKey += churnKeys
	cdf := make([]float64, churnKeys)
	var sum float64
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), churnZipf)
		cdf[i] = sum
	}
	// 50 periods: an even number of toggles, so the list wraps around onto
	// the topology it started from.
	for i := 0; i < 50*churnPeriod; i++ {
		if i%churnPeriod == 0 {
			in.reqs = append(in.reqs, request{kind: kMutate})
			continue
		}
		rank := sort.SearchFloat64s(cdf, src.r.Float64()*sum)
		in.reqs = append(in.reqs, request{kind: kSingle, key: base + uint64(rank), src: sources[rank], ell: 64})
	}
	return in, in.addService(g, distwalk.WithWorkers(1), distwalk.WithResultCache(cacheBytes))
}

// verifyCacheChurn recomputes the window's hit and miss counts from the
// request list alone: a mutation empties the cache, and the cache is far
// larger than the key set, so a lookup misses exactly when its key is new
// since the last mutation.
func verifyCacheChurn(in *instance, from, to int, before, after distwalk.ServiceStats) error {
	var hits, misses int64
	resident := map[uint64]bool{}
	for i := from; i < to; i++ {
		r := &in.reqs[i%len(in.reqs)]
		switch {
		case r.kind == kMutate:
			clear(resident)
		case resident[r.key]:
			hits++
		default:
			misses++
			resident[r.key] = true
		}
	}
	gotHits, gotMisses := after.Cache.Hits-before.Cache.Hits, after.Cache.Misses-before.Cache.Misses
	if from%churnPeriod != 0 {
		return fmt.Errorf("%w: window starts at request %d, not at a mutation", errIncorrect, from)
	}
	if gotHits != hits || gotMisses != misses {
		return fmt.Errorf("%w: cache counted %d hits and %d misses, the request list gives %d and %d",
			errIncorrect, gotHits, gotMisses, hits, misses)
	}
	return nil
}

func fnv(h uint64, v uint64) uint64 { return (h ^ v) * 1099511628211 }

const fnvBasis = 14695981039346656037

func walkOutcome(res *distwalk.WalkResult, n, ell int) (outcome, error) {
	if res.Length != ell || res.Destination < 0 || int(res.Destination) >= n {
		return outcome{}, fmt.Errorf("%w: walk of length %d ended at node %d (want length %d on %d nodes)",
			errIncorrect, res.Length, res.Destination, ell, n)
	}
	return outcome{digest: fnv(fnvBasis, uint64(res.Destination)), rounds: res.Cost.Rounds, msgs: res.Cost.Messages}, nil
}

// do executes one request through the public Service API and checks the
// response's shape.
func (in *instance) do(ctx context.Context, r *request) (outcome, error) {
	svc, n := in.svcs[r.svc], in.graphs[r.svc].N()
	switch r.kind {
	case kSingle:
		res, err := svc.SingleRandomWalk(ctx, r.key, r.src, r.ell)
		if err != nil {
			return outcome{}, err
		}
		return walkOutcome(res, n, r.ell)
	case kMany:
		res, err := svc.ManyRandomWalks(ctx, r.key, r.srcs, r.ell)
		if err != nil {
			return outcome{}, err
		}
		out := outcome{digest: fnvBasis, rounds: res.Cost.Rounds, msgs: res.Cost.Messages}
		if len(res.Walks) != len(r.srcs) {
			return out, fmt.Errorf("%w: %d walks for %d sources", errIncorrect, len(res.Walks), len(r.srcs))
		}
		for _, w := range res.Walks {
			o, err := walkOutcome(w, n, r.ell)
			if err != nil {
				return out, err
			}
			out.digest = fnv(out.digest, o.digest)
		}
		return out, nil
	case kRST:
		res, err := svc.RandomSpanningTree(ctx, r.key, r.src)
		if err != nil {
			return outcome{}, err
		}
		if err := distwalk.ValidateSpanningTree(svc.Graph(), r.src, res.Parent); err != nil {
			return outcome{}, fmt.Errorf("%w: %v", errIncorrect, err)
		}
		out := outcome{digest: fnvBasis, rounds: res.Cost.Rounds, msgs: res.Cost.Messages}
		for _, p := range res.Parent {
			out.digest = fnv(out.digest, uint64(p))
		}
		return out, nil
	case kMix:
		res, err := svc.EstimateMixingTime(ctx, r.key, r.src)
		if err != nil {
			return outcome{}, err
		}
		if res.Tau < 1 || res.Tau <= res.LastFail {
			return outcome{}, fmt.Errorf("%w: mixing estimate τ=%d after a failure at %d", errIncorrect, res.Tau, res.LastFail)
		}
		return outcome{digest: fnv(fnvBasis, uint64(res.Tau)), rounds: res.Cost.Rounds, msgs: res.Cost.Messages}, nil
	case kSubmit:
		h, err := svc.SubmitWalk(ctx, r.key, r.src, r.ell)
		if err != nil {
			return outcome{}, err
		}
		return in.await(h, r)
	case kMutate:
		m := distwalk.Mutations{AddEdges: in.chords}
		if in.chordsOn() {
			m = distwalk.Mutations{RemoveEdges: in.chords}
		}
		if _, err := svc.ApplyMutations(ctx, m); err != nil {
			return outcome{}, err
		}
		in.gen++
		return outcome{}, nil
	}
	return outcome{}, fmt.Errorf("unknown request kind %d", r.kind)
}

// await waits for a submitted walk and charges it its amortized share of
// the batch that served it.
func (in *instance) await(h *distwalk.WalkHandle, r *request) (outcome, error) {
	res, err := h.Result()
	if err != nil {
		return outcome{}, err
	}
	out, err := walkOutcome(res, in.graphs[r.svc].N(), r.ell)
	am := h.Batch().Amortized
	out.rounds, out.msgs = am.Rounds, am.Messages
	return out, err
}

// reference re-executes requests [from, from+n) on plain sequential
// in-process Services with the same seed and no cache, and compares them
// with what the workload's own Services answered.
func (in *instance) reference(ctx context.Context, from, n int, seen map[uint64]outcome) error {
	ref := &instance{seed: in.seed, reqs: in.reqs}
	defer ref.close()
	for _, g := range in.graphs {
		if err := ref.addService(g, distwalk.WithWorkers(1)); err != nil {
			return err
		}
	}
	for i := from; i < from+n; i++ {
		r := &in.reqs[i%len(in.reqs)]
		want, err := ref.do(ctx, r)
		if err != nil {
			return fmt.Errorf("reference request %d: %w", i, err)
		}
		if got, ok := seen[r.key]; ok && got != want {
			return fmt.Errorf("%w: request %d (key %d) answered %+v, the sequential in-process reference %+v",
				errIncorrect, i, r.key, got, want)
		}
	}
	return nil
}
