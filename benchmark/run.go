package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"time"

	"distwalk"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload.
type result struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Trace     bool              `json:"trace"`
	Seconds   float64           `json:"seconds"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Samples   int               `json:"samples"` // timed requests behind the latency figures
	Passes    int               `json:"passes"`  // closed-loop passes behind req_per_s
	Metrics   map[string]metric `json:"metrics"`
}

type runOpts struct {
	seed    uint64
	seconds float64
	trace   bool
	small   bool // smoke-test shapes: every code path, a fiftieth of the work
	outDir  string
	log     io.Writer
}

const (
	setupReps = 3            // set-ups per untraced run; setup_s is their median
	traceReqs = maxSpans / 8 // a traced window ends after this many requests
)

// quantile returns the q-quantile of xs by linear interpolation (0 for no
// samples). It sorts xs in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

// supported returns the q-quantile only when at least ten samples lie
// beyond it, else 0: a percentile the sample cannot support is not printed
// as if it could.
func supported(xs []float64, q float64) float64 {
	if float64(len(xs))*(1-q) < 10 {
		return 0
	}
	return quantile(xs, q)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// setUp builds the workload and warms it up; the time this takes is one
// setup_s sample.
func setUp(ctx context.Context, wl *workload, o runOpts) (*instance, float64, error) {
	t0 := time.Now()
	in, err := wl.build(o.seed, o.small)
	if err != nil {
		return nil, 0, fmt.Errorf("setup: %w", err)
	}
	if err := warmUp(ctx, wl, in); err != nil {
		in.close()
		return nil, 0, fmt.Errorf("setup: %w", err)
	}
	return in, time.Since(t0).Seconds(), nil
}

// runOnce sets a workload up, drives it for o.seconds, checks its answers
// and returns its metrics: the end-to-end ones from an untraced run, the
// per-layer ones from a traced run. A correctness violation returns the
// result with Correct false and an error; failed requests are counted.
func runOnce(sp *spec, wl *workload, o runOpts) (*result, error) {
	// The hard deadline: no run may outlive the contract's 180 s.
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(o.seconds*4*float64(time.Second))+100*time.Second)
	defer cancel()
	chunk := wl.chunk
	if o.small {
		chunk = max(chunk/50/wl.period, 1) * wl.period
	}
	res := &result{Workload: wl.name, Seed: o.seed, Trace: o.trace, Seconds: o.seconds, Correct: true}
	fmt.Fprintf(o.log, "== %s seed=%d seconds=%g trace=%v\n", wl.name, o.seed, o.seconds, o.trace)

	reps := setupReps
	if o.trace || o.small {
		reps = 1
	}
	var in *instance
	var setups []float64
	for i := 0; i < reps; i++ {
		if in != nil {
			in.close()
			runtime.GC()
		}
		var s float64
		var err error
		if in, s, err = setUp(ctx, wl, o); err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}
	defer in.close()

	vals := map[string]float64{}
	var specs []metricSpec
	var err error
	if o.trace {
		specs = sp.PerLayer
		err = traced(ctx, wl, in, chunk, o, res, vals)
	} else {
		specs = sp.EndToEnd
		vals["setup_s"] = quantile(setups, 0.5)
		err = measured(ctx, wl, in, chunk, o, res, vals)
	}
	if err != nil {
		if !errors.Is(err, errIncorrect) {
			return nil, err
		}
		res.Correct = false
	}

	// Every metric BENCHMARK.json names is emitted exactly once, and
	// nothing else: a name that drifts fails here.
	res.Metrics = map[string]metric{}
	for _, s := range specs {
		v, ok := vals[s.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s is in BENCHMARK.json but was not measured", s.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[s.Name] = metric{Value: v, Unit: s.Unit}
		delete(vals, s.Name)
	}
	for name := range vals {
		return nil, fmt.Errorf("metric %s was measured but is not in BENCHMARK.json", name)
	}
	fmt.Fprintf(o.log, "  attempted=%d failed=%d samples=%d passes=%d correct=%v\n", res.Attempted, res.Failed, res.Samples, res.Passes, res.Correct)
	printMetrics(o.log, specs, res.Metrics)
	return res, err
}

// check runs the workload's own counter check and the sequential
// in-process reference over window w.
func check(ctx context.Context, wl *workload, in *instance, w *window, before, after distwalk.ServiceStats) error {
	if wl.verify != nil {
		if err := wl.verify(in, w.from, w.to, before, after); err != nil {
			return err
		}
	}
	if w.failed == 0 && wl.refReqs > 0 {
		return in.reference(ctx, w.from, wl.refReqs, w.seen)
	}
	return nil
}

// measured is the untraced run: one window of o.seconds.
func measured(ctx context.Context, wl *workload, in *instance, chunk int, o runOpts, res *result, vals map[string]float64) error {
	before := in.svcs[0].Stats()
	w, err := drive(ctx, wl, in, chunk, time.Duration(o.seconds*float64(time.Second)), nil, 0)
	res.Attempted, res.Failed, res.Samples, res.Passes = w.attempted(), w.failed, len(w.lat), len(w.passRates)
	if err != nil {
		return err
	}
	if w.failed > 0 {
		fmt.Fprintf(o.log, "  first failure: %v\n", w.firstErr)
	}
	if len(w.passRates) > 0 {
		fmt.Fprintf(o.log, "  pass req/s: min %.4g, median %.4g, max %.4g\n",
			quantile(w.passRates, 0), quantile(w.passRates, 0.5), quantile(w.passRates, 1))
	}
	ok := float64(w.attempted() - w.failed)
	vals["req_per_s"] = quantile(w.passRates, 0.5)
	if wl.rate > 0 {
		vals["req_per_s"] = ok / w.wall.Seconds()
	}
	vals["lat_p50_ms"] = quantile(w.lat, 0.5)
	vals["rounds_per_req"] = ratio(float64(w.rounds), float64(w.counted))
	vals["msgs_per_req"] = ratio(float64(w.msgs), float64(w.counted))
	vals["allocs_per_req"] = ratio(float64(w.mallocs), float64(w.allocReqs))
	vals["live_heap_mb"] = float64(w.liveHeap) / (1 << 20)
	return check(ctx, wl, in, w, before, in.svcs[0].Stats())
}

// traced is the traced run: an untraced window to compare against, a
// traced window, the replay of that window through the layers, and the
// layer probes.
func traced(ctx context.Context, wl *workload, in *instance, chunk int, o runOpts, res *result, vals map[string]float64) error {
	d := time.Duration(o.seconds / 4 * float64(time.Second))
	d0 := d
	if wl.rate > 0 {
		// The schedule, not the clock, sets an open loop's sample count: the
		// two windows must pool 100 requests to support a 90th percentile.
		d0, d = 4*d, 2*d
	}
	chunk = max(min(chunk, traceReqs)/wl.period, 1) * wl.period
	w0, err := drive(ctx, wl, in, chunk, d0, nil, traceReqs)
	if err != nil {
		return err
	}
	tr := newTracer()
	chordsOn := in.chordsOn()
	before := in.svcs[0].Stats()
	w, err := drive(ctx, wl, in, chunk, d, tr, traceReqs)
	after := in.svcs[0].Stats()
	res.Attempted, res.Failed = w0.attempted()+w.attempted(), w0.failed+w.failed
	res.Samples, res.Passes = len(w0.lat)+len(w.lat), len(w0.passRates)+len(w.passRates)
	if err != nil {
		return err
	}
	if err := check(ctx, wl, in, w, before, after); err != nil {
		return err
	}
	st, err := replay(ctx, tr, wl, in, w, chordsOn)
	if err != nil {
		return err
	}
	g := in.graphs[0]
	if in.chordsOn() {
		g = in.svcs[0].Graph()
	}
	vals["graph.build_ms"] = in.graphNS / 1e6
	if err := probeLayers(ctx, vals, g, in.chords, in.seed, o.small); err != nil {
		return fmt.Errorf("layer probes: %w", err)
	}

	// The Service as its user sees it.
	pooled := append(append([]float64(nil), w0.lat...), w.lat...)
	byKind := map[kind][]float64{}
	for _, win := range []*window{w0, w} {
		for i, k := range win.kinds {
			byKind[k] = append(byKind[k], win.lat[i])
		}
	}
	vals["service.lat_p90_ms"] = supported(pooled, 0.90)
	vals["service.lat_p99_ms"] = supported(pooled, 0.99)
	vals["service.fail_ratio"] = ratio(float64(res.Failed), float64(res.Attempted))
	vals["service.rst_p50_ms"] = quantile(byKind[kRST], 0.5)
	vals["service.mixing_p50_ms"] = quantile(byKind[kMix], 0.5)
	vals["service.mutation_us"] = quantile(byKind[kMutate], 0.5) * 1e3
	vals["service.overhead_us"] = (quantile(tr.durations(spanService), 0.5) - quantile(tr.durations(spanReplay), 0.5)) / 1e3
	vals["trace.overhead_ratio"] = ratio(quantile(w.lat, 0.5), quantile(w0.lat, 0.5))
	vals["loadgen.late_p90_ms"] = quantile(w.late, 0.9)
	vals["loadgen.outstanding_max"] = float64(max(w.peak, min(wl.clients, w.attempted())))

	// The counters the Service keeps, over the traced window.
	reqs := float64(w.attempted())
	sb, sa := before.SchedStats, after.SchedStats
	batches := float64(sa.Batches - sb.Batches)
	vals["sched.batch_size_mean"] = ratio(float64(sa.BatchedWalks-sb.BatchedWalks), batches)
	vals["sched.flush_by_delay_ratio"] = ratio(float64(sa.FlushByDelay-sb.FlushByDelay), batches)
	vals["sched.amortized_rounds"] = ratio(float64(sa.BatchCost.Rounds-sb.BatchCost.Rounds), float64(sa.BatchedWalks-sb.BatchedWalks))
	vals["sched.rejected_ratio"] = ratio(float64(sa.Rejected-sb.Rejected), float64(sa.Submitted-sb.Submitted+sa.Rejected-sb.Rejected))
	hits, misses := float64(after.Cache.Hits-before.Cache.Hits), float64(after.Cache.Misses-before.Cache.Misses)
	vals["cache.hit_ratio"] = ratio(hits, hits+misses)
	vals["cache.coalesced"] = float64(after.Cache.CoalescedWaiters - before.Cache.CoalescedWaiters)
	vals["cache.evictions"] = float64(after.Cache.Evictions - before.Cache.Evictions)
	vals["cache.bytes_used"] = float64(after.Cache.BytesUsed)
	vals["wire.runs_per_req"], vals["wire.rounds_per_req"] = 0, 0
	if len(after.Cluster.Engines) > 0 {
		a, b := after.Cluster.Engines[0], distwalk.ClusterEngineStats{}
		if len(before.Cluster.Engines) > 0 {
			b = before.Cluster.Engines[0]
		}
		vals["wire.runs_per_req"] = ratio(float64(a.Runs-b.Runs), reqs)
		vals["wire.rounds_per_req"] = ratio(float64(a.Rounds-b.Rounds), reqs)
	}
	vals["congest.barrier_wait_share"], vals["congest.shard_imbalance"] = shardShares(before.Shards, after.Shards, w.wall)
	full := float64(after.Mutation.ReshardsFull - before.Mutation.ReshardsFull)
	vals["congest.reshape_full_ratio"] = ratio(full, full+float64(after.Mutation.ReshardsIncremental-before.Mutation.ReshardsIncremental))

	// The layers, from the replay.
	vals["core.walk_ms"] = quantile(tr.durations("core.walk"), 0.5) / 1e6
	vals["congest.ns_per_msg"] = ratio(st.engineNS, float64(st.msgs))
	vals["congest.ns_per_round"] = ratio(st.engineNS, float64(st.rounds))
	b := st.breakdown
	total := float64(b.TreeBuild + b.Phase1 + b.Stitch + b.Refill + b.Tail + b.Report)
	vals["core.phase1_round_share"] = ratio(float64(b.Phase1), total)
	vals["core.stitch_round_share"] = ratio(float64(b.Stitch), total)
	vals["core.refill_round_share"] = ratio(float64(b.Refill), total)
	vals["core.tail_round_share"] = ratio(float64(b.Tail), total)
	vals["spanning.rst_ms"] = quantile(tr.durations("spanning.rst"), 0.5) / 1e6
	vals["spanning.rounds_per_tree"] = ratio(float64(st.rstRounds), float64(st.rstN))
	vals["mixing.tau_ms"] = quantile(tr.durations("mixing.tau"), 0.5) / 1e6
	vals["mixing.rounds_per_estimate"] = ratio(float64(st.mixRounds), float64(st.mixN))
	waits := tr.durations("sched.queue_wait")
	vals["sched.queue_wait_p50_ms"] = quantile(waits, 0.5) / 1e6
	vals["sched.queue_wait_p90_ms"] = quantile(waits, 0.9) / 1e6

	rows := tr.layerTable()
	fmt.Fprintf(o.log, "  self time by layer (%d spans, %d requests replayed bit-identically):\n", len(tr.spans), st.checks)
	printLayerTable(o.log, rows)
	verdict := "UNEXPECTED: resize the workload or correct its why"
	for _, l := range wl.dominant {
		if len(rows) > 0 && rows[0].layer == l {
			verdict = "as intended"
		}
	}
	if len(rows) > 0 {
		fmt.Fprintf(o.log, "  dominant layer: %s (intended: %v) %s\n", rows[0].layer, wl.dominant, verdict)
	}
	return tr.write(o.outDir, wl.name)
}

// shardShares returns, over a window of the given wall time, the share of
// shard time spent waiting at round barriers and the busiest shard's work
// share times the shard count (1 = perfectly balanced).
func shardShares(before, after distwalk.ShardStats, wall time.Duration) (wait, imbalance float64) {
	s := len(after.BarrierWait)
	if s == 0 || wall <= 0 {
		return 0, 0
	}
	delta := distwalk.ShardStats{Shards: s, Stepped: make([]int64, s), Delivered: make([]int64, s)}
	var waited time.Duration
	for i := 0; i < s; i++ {
		waited += after.BarrierWait[i]
		delta.Stepped[i], delta.Delivered[i] = after.Stepped[i], after.Delivered[i]
		if i < len(before.BarrierWait) {
			waited -= before.BarrierWait[i]
			delta.Stepped[i] -= before.Stepped[i]
			delta.Delivered[i] -= before.Delivered[i]
		}
	}
	for _, share := range delta.Occupancy() {
		imbalance = max(imbalance, share*float64(s))
	}
	return float64(waited) / (float64(s) * float64(wall)), imbalance
}
