package distwalk_test

import (
	"context"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"distwalk"
)

// TestMetricsHandler drives the Prometheus text endpoint over real
// traffic: a hit/miss pair and a mutation, then asserts
// the exposition carries the matching series with the matching values.
func TestMetricsHandler(t *testing.T) {
	g, err := distwalk.Torus(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := distwalk.NewService(g, 42, distwalk.WithResultCache(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()

	if _, err := svc.SingleRandomWalk(ctx, 1, 0, 512); err != nil { // miss
		t.Fatal(err)
	}
	if _, err := svc.SingleRandomWalk(ctx, 1, 0, 512); err != nil { // hit
		t.Fatal(err)
	}
	if _, err := svc.ApplyMutations(ctx, distwalk.Mutations{
		AddEdges: []distwalk.EdgeMutation{{U: 0, V: 20}},
	}); err != nil {
		t.Fatal(err)
	}

	rr := httptest.NewRecorder()
	svc.MetricsHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if rr.Code != 200 {
		t.Fatalf("MetricsHandler status %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q, want text exposition 0.0.4", ct)
	}
	body := rr.Body.String()

	wantLines := []string{
		"distwalk_topology_generation 2",
		"distwalk_mutations_applied_total 1",
		`distwalk_mutation_edges_total{op="add"} 1`,
		`distwalk_mutation_edges_total{op="remove"} 0`,
		`distwalk_cache_lookups_total{outcome="hit"} 1`,
		`distwalk_cache_lookups_total{outcome="miss"} 1`,
	}
	for _, want := range wantLines {
		if !strings.Contains(body, want+"\n") {
			t.Errorf("exposition missing line %q", want)
		}
	}

	// Every sample line must parse as the text format: name{labels} value.
	sampleRE := regexp.MustCompile(`^[a-z_]+(\{[^}]*\})? -?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?$`)
	families := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			families[strings.Fields(line)[2]] = true
			continue
		}
		if !sampleRE.MatchString(line) {
			t.Errorf("malformed sample line %q", line)
			continue
		}
		name := line[:strings.IndexAny(line, "{ ")]
		if base := histSuffix.ReplaceAllString(name, ""); !families[name] && !families[base] {
			t.Errorf("sample %q precedes its # HELP/# TYPE header", name)
		}
	}
	for name := range families {
		if strings.HasPrefix(name, "distwalk_cluster_") {
			t.Errorf("cluster family %s present on a clusterless service", name)
		}
	}
	if families["distwalk_shard_steps_total"] {
		t.Error("shard families present on an unsharded service")
	}
}

// scrape returns every sample of the service's exposition, keyed by the
// series as written (name plus label set).
func scrape(t *testing.T, svc *distwalk.Service) map[string]float64 {
	t.Helper()
	rr := httptest.NewRecorder()
	svc.MetricsHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	out := map[string]float64{}
	for _, line := range strings.Split(strings.TrimSuffix(rr.Body.String(), "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("sample line %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// TestMetricsShardAndBatchFamilies pins the families the exposition used
// to omit although ServiceStats carries them: per-shard steps, deliveries
// and barrier wait, and the BatchedWalks / BatchCost.Rounds pair behind
// AmortizedRounds, BatchCost.Messages, Batches and the Occupancy
// histogram. Each must be present and non-zero after one batched
// request on a sharded service, and must not run backwards.
func TestMetricsShardAndBatchFamilies(t *testing.T) {
	g, err := distwalk.Torus(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := distwalk.NewService(g, 42, distwalk.WithWorkers(1),
		distwalk.WithShards(2), distwalk.WithBatching(1, time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	walk := func(key uint64) {
		t.Helper()
		h, err := svc.SubmitWalk(context.Background(), key, 0, 512)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.Result(); err != nil {
			t.Fatal(err)
		}
	}
	series := []string{
		`distwalk_shard_steps_total{shard="0"}`,
		`distwalk_shard_steps_total{shard="1"}`,
		`distwalk_shard_delivered_total{shard="0"}`,
		`distwalk_shard_delivered_total{shard="1"}`,
		`distwalk_shard_barrier_wait_seconds_total{shard="0"}`,
		`distwalk_shard_barrier_wait_seconds_total{shard="1"}`,
		`distwalk_batched_walks_total`,
		`distwalk_batch_rounds_total`,
		`distwalk_batch_messages_total`,
		`distwalk_batches_total`,
	}
	walk(1)
	first := scrape(t, svc)
	for _, s := range series {
		if v, ok := first[s]; !ok || v <= 0 {
			t.Errorf("%s = %v (present %v) after one request, want > 0", s, v, ok)
		}
	}
	walk(2)
	second := scrape(t, svc)
	for _, s := range series {
		if second[s] < first[s] {
			t.Errorf("%s ran backwards: %v then %v", s, first[s], second[s])
		}
	}
	if got := second[`distwalk_batched_walks_total`]; got != 2 {
		t.Errorf("distwalk_batched_walks_total = %v after two batched walks, want 2", got)
	}
	// Occupancy as a histogram: MaxBatch 1, so both batches fall in le="1".
	for s, want := range map[string]float64{
		`distwalk_batch_size_bucket{le="1"}`:    2,
		`distwalk_batch_size_bucket{le="+Inf"}`: 2,
		`distwalk_batch_size_sum`:               2,
		`distwalk_batch_size_count`:             2,
	} {
		if got, ok := second[s]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", s, got, ok, want)
		}
	}
}

// histSuffix strips a histogram sample's suffix, leaving its family name.
var histSuffix = regexp.MustCompile(`_(bucket|sum|count)$`)

// TestEveryStatsFieldExported: every numeric leaf of ServiceStats — a
// number, or a slice of numbers, at any depth — carries a metric tag,
// either a series or "-" (the field's comment says why it is none). A
// counter added without one fails here instead of going missing from
// /metrics. Strings are labels or identities, not series.
func TestEveryStatsFieldExported(t *testing.T) {
	var walk func(typ reflect.Type, path string)
	walk = func(typ reflect.Type, path string) {
		for i := range typ.NumField() {
			f := typ.Field(i)
			tag, tagged := f.Tag.Lookup("metric")
			if !f.IsExported() || tag == "-" {
				continue
			}
			ft := f.Type
			if ft.Kind() == reflect.Slice {
				ft = ft.Elem()
			}
			switch ft.Kind() {
			case reflect.Struct:
				walk(ft, path+"."+f.Name)
			case reflect.String:
			default:
				if !tagged {
					t.Errorf("%s.%s has no metric tag", path, f.Name)
				}
			}
		}
	}
	walk(reflect.TypeOf(distwalk.ServiceStats{}), "ServiceStats")
}
