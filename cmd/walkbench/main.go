// Command walkbench runs the reproduction experiments (E1-E12; -list
// prints the index) and prints the paper-shaped tables.
//
// Usage:
//
//	walkbench                      # run everything at small scale
//	walkbench -e E1,E7             # run selected experiments
//	walkbench -scale medium -seed 7
//	walkbench -list
package main

import (
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
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("walkbench", flag.ContinueOnError)
	var (
		ids      = fs.String("e", "all", "comma-separated experiment IDs (e.g. E1,E7) or 'all'")
		seed     = fs.Uint64("seed", 42, "master random seed")
		scaleStr = fs.String("scale", "small", "workload scale: small|medium|large")
		list     = fs.Bool("list", false, "list experiments and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
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
