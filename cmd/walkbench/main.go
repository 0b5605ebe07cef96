// Command walkbench runs the reproduction experiments (E1-E12; -list
// prints the index) and prints the paper-shaped tables.
//
// Usage:
//
//	walkbench                      # run everything at small scale
//	walkbench -e E1,E7             # run selected experiments
//	walkbench -scale medium -seed 7
//	walkbench -list
//	walkbench -bench-json out/     # write BENCH_*.json perf snapshots
//	walkbench -bench-diff bench/baseline,out  # fail on perf/cost regression
//	walkbench -bench-diff ... -bench-summary "$GITHUB_STEP_SUMMARY"
//
// Measurement rule: in -bench-json mode every workload runs one warm-up
// op plus -bench-reps measured ops of the SAME request key, and the
// snapshot records the minimum-ns/op rep — the least-noisy estimate of
// the workload's true cost on the machine (the mean smears scheduler and
// GC noise across reps). The simulated counters (rounds/messages/words)
// are asserted identical across reps — per-key determinism makes any
// drift a bug — so the recorded counters are exact, not averaged.
//
// Exit codes in -bench-diff mode: 0 clean, 3 when only ns/op regressed
// (wall-time noise; CI retries the measurement once), 1 for everything
// deterministic (simulated-counter drift, allocation regressions, missing
// workloads, config mismatches) — those fail immediately.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"distwalk/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "walkbench:", err)
		if errors.Is(err, errSoftRegression) {
			os.Exit(3)
		}
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("walkbench", flag.ContinueOnError)
	var (
		ids       = fs.String("e", "all", "comma-separated experiment IDs (e.g. E1,E7) or 'all'")
		seed      = fs.Uint64("seed", 42, "master random seed")
		scaleStr  = fs.String("scale", "small", "workload scale: small|medium|large")
		list      = fs.Bool("list", false, "list experiments and exit")
		benchDir  = fs.String("bench-json", "", "run the headline workloads and write BENCH_*.json into this directory, then exit")
		benchReps = fs.Int("bench-reps", 5, "repetitions per workload in -bench-json mode; the min-ns/op rep is recorded (simulated counters asserted equal across reps)")
		benchDiff = fs.String("bench-diff", "", "compare two BENCH_*.json dirs given as 'baseline,candidate'; exit 3 on ns/op-only regression, 1 on deterministic regression")
		benchTol  = fs.Float64("bench-tol", 0.20, "allowed fractional ns/op growth in -bench-diff mode")
		benchSum  = fs.String("bench-summary", "", "append a markdown delta table to this file in -bench-diff mode (e.g. $GITHUB_STEP_SUMMARY)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *benchDiff != "" {
		base, cand, ok := strings.Cut(*benchDiff, ",")
		if !ok || base == "" || cand == "" {
			return fmt.Errorf("-bench-diff wants 'baselineDir,candidateDir', got %q", *benchDiff)
		}
		return runBenchDiff(base, cand, *benchTol, *benchSum)
	}
	if *benchDir != "" {
		return runBenchJSON(*benchDir, *seed, *benchReps)
	}
	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-4s %s\n     %s\n", e.ID, e.Title, e.Claim)
		}
		return nil
	}
	scale, err := experiments.ParseScale(*scaleStr)
	if err != nil {
		return err
	}
	var selected []experiments.Experiment
	if *ids == "all" {
		selected = experiments.All()
	} else {
		for _, id := range strings.Split(*ids, ",") {
			id = strings.TrimSpace(id)
			e, ok := experiments.ByID(id)
			if !ok {
				return fmt.Errorf("unknown experiment %q (use -list)", id)
			}
			selected = append(selected, e)
		}
	}
	cfg := experiments.Config{Seed: *seed, Scale: scale, Out: os.Stdout}
	for _, e := range selected {
		start := time.Now()
		if err := experiments.Run(e, cfg); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Printf("   [%s finished in %v]\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	return nil
}
