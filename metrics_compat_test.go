package distwalk_test

import (
	"context"
	"net"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"distwalk"
	"distwalk/internal/wire"
)

// metricsScenarios are the services whose exposition testdata/metrics
// pins: each builds a service, drives a fixed request sequence and
// returns it. The fixtures were captured before the exposition was
// rendered from struct tags; TestMetricsExpositionCompat holds the
// renderer to every sample and # TYPE line they contain.
var metricsScenarios = map[string]func(t *testing.T) *distwalk.Service{
	// TestMetricsHandler's traffic: a miss, a hit and one mutation.
	"cache_mutation": func(t *testing.T) *distwalk.Service {
		g := mustTorus(t, 8, 8)
		svc := mustService(t, g, distwalk.WithResultCache(1<<20))
		ctx := context.Background()
		for range 2 {
			if _, err := svc.SingleRandomWalk(ctx, 1, 0, 512); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := svc.ApplyMutations(ctx, distwalk.Mutations{
			AddEdges: []distwalk.EdgeMutation{{U: 0, V: 20}},
		}); err != nil {
			t.Fatal(err)
		}
		return svc
	},
	// Two batched walks, one after the other, on two shards.
	"shards_batching": func(t *testing.T) *distwalk.Service {
		g := mustTorus(t, 8, 8)
		svc := mustService(t, g, distwalk.WithWorkers(1), distwalk.WithShards(2),
			distwalk.WithBatching(4, 5*time.Millisecond))
		for key := uint64(1); key <= 2; key++ {
			h, err := svc.SubmitWalk(context.Background(), key, 0, 512)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := h.Result(); err != nil {
				t.Fatal(err)
			}
		}
		return svc
	},
	// Two walks over two in-process engine servers.
	"cluster": func(t *testing.T) *distwalk.Service {
		g := mustTorus(t, 6, 6)
		svc := mustService(t, g, distwalk.WithWorkers(1),
			distwalk.WithCluster(startWireServers(t, 2)...))
		for key := uint64(1); key <= 2; key++ {
			if _, err := svc.SingleRandomWalk(context.Background(), key, 0, 256); err != nil {
				t.Fatal(err)
			}
		}
		return svc
	},
}

func mustService(t *testing.T, g *distwalk.Graph, opts ...distwalk.Option) *distwalk.Service {
	t.Helper()
	svc, err := distwalk.NewService(g, 42, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	return svc
}

// startWireServers serves n engine servers on loopback from this process
// and returns their addresses; they close with the test.
func startWireServers(t testing.TB, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := wire.NewServer(wire.ServerConfig{PinShard: -1})
		go srv.Serve(ln)
		t.Cleanup(srv.Close)
		addrs[i] = ln.Addr().String()
	}
	return addrs
}

// addrLabel matches an engine's address label, whose port changes from
// run to run.
var addrLabel = regexp.MustCompile(`addr="[^"]*"`)

// exposition scrapes the service's /metrics with engine addresses
// normalized.
func exposition(svc *distwalk.Service) string {
	rr := httptest.NewRecorder()
	svc.MetricsHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	return addrLabel.ReplaceAllString(rr.Body.String(), `addr="ENGINE"`)
}

// TestMetricsExpositionCompat: every # TYPE line and every sample (name,
// label set, value) of the fixture is still emitted. Wall-clock series
// are compared by name and labels only; # HELP text may differ.
func TestMetricsExpositionCompat(t *testing.T) {
	for name, scenario := range metricsScenarios {
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "metrics", name+".prom"))
			if err != nil {
				t.Fatal(err)
			}
			got := map[string]bool{}
			for _, line := range strings.Split(exposition(scenario(t)), "\n") {
				got[wallClockKey(line)] = true
			}
			for _, line := range strings.Split(strings.TrimSuffix(string(want), "\n"), "\n") {
				if strings.HasPrefix(line, "# HELP ") {
					continue
				}
				if !got[wallClockKey(line)] {
					t.Errorf("exposition lost %q", line)
				}
			}
		})
	}
}

// wallClockKey strips the value of a wall-clock sample line, leaving
// every other line as is.
func wallClockKey(line string) string {
	if i := strings.LastIndexByte(line, ' '); i > 0 && strings.Contains(line[:i], "_seconds_total") && !strings.HasPrefix(line, "#") {
		return line[:i]
	}
	return line
}
