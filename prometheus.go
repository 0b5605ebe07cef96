package distwalk

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
)

// MetricsHandler returns an http.Handler that serves the service's
// counters in the Prometheus text exposition format (version 0.0.4),
// the scrape-ready counterpart of the JSON StatsHandler:
//
//	mux.Handle("/metrics", svc.MetricsHandler())
//
// The exposition is hand-written — no client library — and covers the
// topology generation and mutation activity, the result cache, retry
// recovery, the batching scheduler, per-shard work and barrier time
// (with WithShards), and (in cluster mode) per-engine health and traffic.
// Counters are cumulative since service start; gauges (generation, cache
// bytes, engine health) are instantaneous.
func (s *Service) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		var b strings.Builder
		writeMetrics(&b, s.Stats())
		_, _ = w.Write([]byte(b.String()))
	})
}

func writeMetrics(b *strings.Builder, st ServiceStats) {
	// Topology / mutation.
	gauge(b, "distwalk_topology_generation", "Current topology generation (starts at 1; ApplyMutations and InvalidateCache advance it).",
		sample{v: float64(st.Mutation.Generation)})
	counter(b, "distwalk_mutations_applied_total", "Mutation batches published.",
		sample{v: float64(st.Mutation.Applied)})
	counter(b, "distwalk_mutation_edges_total", "Edge edits carried by published mutation batches, by operation.",
		sample{l: `op="add"`, v: float64(st.Mutation.EdgesAdded)},
		sample{l: `op="remove"`, v: float64(st.Mutation.EdgesRemoved)})
	counter(b, "distwalk_stale_aborts_total", "Requests failed with ErrStaleGeneration (abort-mode requests overtaken by a mutation).",
		sample{v: float64(st.Mutation.StaleAborts)})
	counter(b, "distwalk_reshards_total", "Worker-network reshapes after a mutation, by kind.",
		sample{l: `kind="incremental"`, v: float64(st.Mutation.ReshardsIncremental)},
		sample{l: `kind="full"`, v: float64(st.Mutation.ReshardsFull)})

	// Result cache.
	counter(b, "distwalk_cache_lookups_total", "Result-cache lookups, by outcome.",
		sample{l: `outcome="hit"`, v: float64(st.Cache.Hits)},
		sample{l: `outcome="miss"`, v: float64(st.Cache.Misses)},
		sample{l: `outcome="coalesced"`, v: float64(st.Cache.CoalescedWaiters)})
	counter(b, "distwalk_cache_evictions_total", "Result-cache entries dropped (LRU pressure plus purges).",
		sample{v: float64(st.Cache.Evictions)})
	gauge(b, "distwalk_cache_bytes", "Current charged result-cache footprint in bytes.",
		sample{v: float64(st.Cache.BytesUsed)})
	counter(b, "distwalk_cache_hit_bytes_total", "Payload bytes served from the result-cache store.",
		sample{v: float64(st.Cache.HitBytes)})

	// Retry recovery.
	counter(b, "distwalk_request_attempts_total", "Request executions, first attempts included.",
		sample{v: float64(st.Retry.Attempts)})
	counter(b, "distwalk_request_retries_total", "Re-executions after a retryable failure.",
		sample{v: float64(st.Retry.Retries)})
	counter(b, "distwalk_request_recovered_total", "Requests that succeeded on a retry.",
		sample{v: float64(st.Retry.Recovered)})
	counter(b, "distwalk_request_exhausted_total", "Requests that still failed after their last retry.",
		sample{v: float64(st.Retry.Exhausted)})
	counter(b, "distwalk_fault_attempts_total", "Attempts failed with a typed fault error.",
		sample{v: float64(st.Retry.Faults)})

	// Batching scheduler.
	counter(b, "distwalk_batch_submitted_total", "Requests admitted to a batch queue.",
		sample{v: float64(st.Submitted)})
	counter(b, "distwalk_batch_rejected_total", "Submissions refused with ErrQueueFull.",
		sample{v: float64(st.Rejected)})
	counter(b, "distwalk_batch_cancelled_total", "Members dropped from a pending batch before flush.",
		sample{v: float64(st.Cancelled)})
	counter(b, "distwalk_batch_aborted_total", "Members completed with ErrBatchAborted.",
		sample{v: float64(st.Aborted)})
	counter(b, "distwalk_batch_flushes_total", "Flushed batch executions, by trigger.",
		sample{l: `trigger="size"`, v: float64(st.FlushBySize)},
		sample{l: `trigger="delay"`, v: float64(st.FlushByDelay)})
	counter(b, "distwalk_batched_walks_total", "Walks executed inside batches; with distwalk_batch_rounds_total, the amortized rounds per batched walk.",
		sample{v: float64(st.BatchedWalks)})
	counter(b, "distwalk_batch_rounds_total", "Simulated rounds spent by batch executions.",
		sample{v: float64(st.BatchCost.Rounds)})

	// Shard work and barrier time (absent without WithShards).
	if len(st.Shards.Stepped) > 0 {
		steps := make([]sample, len(st.Shards.Stepped))
		delivered := make([]sample, len(steps))
		wait := make([]sample, len(steps))
		for i := range steps {
			l := `shard="` + strconv.Itoa(i) + `"`
			steps[i] = sample{l: l, v: float64(st.Shards.Stepped[i])}
			delivered[i] = sample{l: l, v: float64(st.Shards.Delivered[i])}
			wait[i] = sample{l: l, v: st.Shards.BarrierWait[i].Seconds()}
		}
		counter(b, "distwalk_shard_steps_total", "Protocol steps executed, per network shard.", steps...)
		counter(b, "distwalk_shard_delivered_total", "Messages merged at round barriers, per network shard.", delivered...)
		counter(b, "distwalk_shard_barrier_wait_seconds_total", "Time spent waiting at round barriers (spin included), per network shard.", wait...)
	}

	// Cluster health and traffic (absent without WithCluster).
	if len(st.Cluster.Engines) > 0 {
		hs := make([]sample, 0, len(st.Cluster.Engines))
		runs := make([]sample, 0, len(st.Cluster.Engines))
		bytes := make([]sample, 0, 2*len(st.Cluster.Engines))
		for i, e := range st.Cluster.Engines {
			l := `engine="` + strconv.Itoa(i) + `",addr="` + labelEscape(e.Addr) + `"`
			up := 0.0
			if i < len(st.Cluster.Health) && st.Cluster.Health[i] == "healthy" {
				up = 1
			}
			hs = append(hs, sample{l: l, v: up})
			runs = append(runs, sample{l: l, v: float64(e.Runs)})
			bytes = append(bytes,
				sample{l: l + `,direction="out"`, v: float64(e.BytesOut)},
				sample{l: l + `,direction="in"`, v: float64(e.BytesIn)})
		}
		gauge(b, "distwalk_cluster_engine_healthy", "0 once a session with the engine died or a dial to it failed, 1 again after the next successful dial.", hs...)
		counter(b, "distwalk_cluster_engine_runs_total", "Runs begun on each remote shard engine.", runs...)
		counter(b, "distwalk_cluster_engine_bytes_total", "Raw wire traffic per engine, by direction.", bytes...)
		counter(b, "distwalk_cluster_failovers_total", "Requests re-executed in-process after losing their cluster run.",
			sample{v: float64(st.Cluster.Failovers)})
	}
}

// sample is one exposition line: an optional label set and a value.
type sample struct {
	l string
	v float64
}

func counter(b *strings.Builder, name, help string, ss ...sample) {
	family(b, name, "counter", help, ss)
}
func gauge(b *strings.Builder, name, help string, ss ...sample) { family(b, name, "gauge", help, ss) }

func family(b *strings.Builder, name, typ, help string, ss []sample) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	for _, s := range ss {
		if s.l != "" {
			fmt.Fprintf(b, "%s{%s} %s\n", name, s.l, formatValue(s.v))
		} else {
			fmt.Fprintf(b, "%s %s\n", name, formatValue(s.v))
		}
	}
}

// formatValue renders a sample value the way the exposition format wants:
// integers without an exponent, everything else in Go's shortest form.
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// labelEscape escapes a label value per the exposition format: backslash,
// double quote and newline.
func labelEscape(s string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}
