package distwalk_test

// Chaos suite: randomized-but-seeded fault plans driven through the whole
// stack (Service -> retry layer -> core walk algorithms -> sharded CONGEST
// engine), asserting the robustness contract of ISSUE 6:
//
//   - no deadlock: every request completes promptly (a hang would surface
//     as the deadline context aborting the request, which the suite treats
//     as a failure);
//   - typed errors only: every failure matches one of the documented
//     sentinels, and a request that recorded a message loss is never
//     reported as a bare budget overrun;
//   - plan determinism: the same (plan seed, graph, request key) produces
//     bit-identical results, costs and FaultStats at 1, 2, 4 and 8 shards,
//     and on a fresh service re-running the same plan.
//
// CI runs this file under -race -count=2 as a dedicated chaos job. When
// CHAOS_SUMMARY names a file (the job points it at GITHUB_STEP_SUMMARY), a
// per-seed markdown table of retry/fault counters is appended to it.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"distwalk"
)

// chaosSeeds are fixed: the suite is deterministic, not flaky — these
// seeds were tuned once so every plan exercises drops, delays and churn.
var chaosSeeds = []uint64{101, 202, 303}

func chaosPlan(t *testing.T, g *distwalk.Graph, seed uint64) *distwalk.FaultPlan {
	t.Helper()
	plan := distwalk.RandomFaultPlan(seed, g, distwalk.ChaosSpec{
		Crashes:    1,
		Churns:     2,
		MaxRound:   500,
		DropProb:   0.0008,
		LossyLinks: 3,
		SlowLinks:  3,
	})
	if plan.Empty() {
		t.Fatalf("seed %d produced an empty chaos plan", seed)
	}
	return plan
}

// chaosTypedErr reports whether err is one of the failure modes the chaos
// contract allows a faulty run to surface.
func chaosTypedErr(err error) bool {
	for _, s := range []error{
		distwalk.ErrNodeCrashed,
		distwalk.ErrMessageLost,
		distwalk.ErrBudgetExceeded, // slow links can burn the budget without losing anything
		distwalk.ErrNoCover,
		distwalk.ErrNoMixing,
	} {
		if errors.Is(err, s) {
			return true
		}
	}
	return false
}

// chaosRun fires a fixed concurrent request mix at a service built with
// the given plan and shard count and returns (digest, retry stats). The
// digest covers every observable: destinations, costs (which embed
// FaultStats) and full error texts — so two
// equal digests mean bit-identical fault charging and recovery.
func chaosRun(t *testing.T, g *distwalk.Graph, plan *distwalk.FaultPlan, shards int) (string, distwalk.RetryStats) {
	t.Helper()
	svc, err := distwalk.NewService(g, 42,
		distwalk.WithWorkers(2),
		distwalk.WithShards(shards),
		distwalk.WithFaultPlan(plan),
		distwalk.WithRetry(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	// The deadline is the no-deadlock assertion: a stalled request aborts
	// with a context error, which is not a chaos-typed error and fails the
	// suite.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	type req struct {
		name string
		run  func(key uint64) (string, error)
	}
	reqs := []req{
		{"single", func(key uint64) (string, error) {
			res, err := svc.SingleRandomWalk(ctx, key, 0, 384)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("dest=%d len=%d cost=%+v", res.Destination, res.Length, res.Cost), nil
		}},
		{"naive", func(key uint64) (string, error) {
			res, err := svc.NaiveWalk(ctx, key, 5, 256)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("dest=%d cost=%+v", res.Destination, res.Cost), nil
		}},
		{"many", func(key uint64) (string, error) {
			sources := make([]distwalk.NodeID, 6)
			for i := range sources {
				sources[i] = distwalk.NodeID(i * 13 % g.N())
			}
			res, err := svc.ManyRandomWalks(ctx, key, sources, 384)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("dests=%v cost=%+v", res.Destinations, res.Cost), nil
		}},
		{"spanning", func(key uint64) (string, error) {
			res, err := svc.RandomSpanningTree(ctx, key, 0)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("parents=%v cost=%+v", res.Parent, res.Cost), nil
		}},
		{"mixing", func(key uint64) (string, error) {
			est, err := svc.EstimateMixingTime(ctx, key, 0, distwalk.WithMixingOptions(distwalk.MixingOptions{Samples: 12, MaxEll: 128}))
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("tau=%d cost=%+v", est.Tau, est.Cost), nil
		}},
	}

	const keysPerReq = 2
	lines := make([]string, len(reqs)*keysPerReq)
	var wg sync.WaitGroup
	for ri, r := range reqs {
		for k := 0; k < keysPerReq; k++ {
			wg.Add(1)
			go func(slot int, r req, key uint64) {
				defer wg.Done()
				out, err := r.run(key)
				if err != nil {
					if !chaosTypedErr(err) {
						t.Errorf("%s key %d: untyped chaos error: %v", r.name, key, err)
					}
					if errors.Is(err, distwalk.ErrBudgetExceeded) &&
						(errors.Is(err, distwalk.ErrNodeCrashed) || errors.Is(err, distwalk.ErrMessageLost)) {
						t.Errorf("%s key %d: error wraps both a fault and the budget sentinel: %v", r.name, key, err)
					}
					out = "err=" + err.Error()
				}
				lines[slot] = fmt.Sprintf("%s/%d: %s", r.name, key, out)
			}(ri*keysPerReq+k, r, uint64(key0+k))
		}
	}
	wg.Wait()
	return strings.Join(lines, "\n"), svc.Stats().Retry
}

const key0 = 1 // first request key of each chaos service

func TestChaosSuite(t *testing.T) {
	g, err := distwalk.Torus(10, 10)
	if err != nil {
		t.Fatal(err)
	}
	var summary strings.Builder
	summary.WriteString("| plan seed | shards | attempts | retries | recovered | exhausted | faults |\n|---|---|---|---|---|---|---|\n")
	for _, seed := range chaosSeeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			plan := chaosPlan(t, g, seed)
			want, wantRetry := chaosRun(t, g, plan, 1)
			if !strings.Contains(want, "err=") && wantRetry.Faults == 0 {
				t.Logf("seed %d: plan caused no observable fault — chaos coverage is weak", seed)
			}
			for _, shards := range []int{2, 4, 8} {
				got, gotRetry := chaosRun(t, g, plan, shards)
				if got != want {
					t.Errorf("digest diverged at %d shards:\n--- sequential ---\n%s\n--- sharded ---\n%s", shards, want, got)
				}
				if gotRetry != wantRetry {
					t.Errorf("retry counters diverged at %d shards: %+v vs %+v", shards, gotRetry, wantRetry)
				}
				summary.WriteString(fmt.Sprintf("| %d | %d | %d | %d | %d | %d | %d |\n",
					seed, shards, gotRetry.Attempts, gotRetry.Retries, gotRetry.Recovered, gotRetry.Exhausted, gotRetry.Faults))
			}
			// Plan determinism on a fresh service: the same plan re-runs to
			// the same digest, retries included.
			again, againRetry := chaosRun(t, g, plan, 1)
			if again != want || againRetry != wantRetry {
				t.Errorf("same plan re-ran differently:\n--- first ---\n%s\n--- second ---\n%s", want, again)
			}
			summary.WriteString(fmt.Sprintf("| %d | 1 | %d | %d | %d | %d | %d |\n",
				seed, wantRetry.Attempts, wantRetry.Retries, wantRetry.Recovered, wantRetry.Exhausted, wantRetry.Faults))
		})
	}
	if path := os.Getenv("CHAOS_SUMMARY"); path != "" && !t.Failed() {
		f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatalf("CHAOS_SUMMARY: %v", err)
		}
		defer f.Close()
		fmt.Fprintf(f, "### Chaos suite fault/retry counters\n\n%s\n", summary.String())
	}
}
