// Command mixtime estimates the mixing time of a generated graph with the
// fully decentralized estimator of Section 4.2 and, for graphs small
// enough for exact computation, prints the paper's bracket
// τ_mix ≤ τ̃ ≤ τ^x(ε) alongside the spectral-gap and conductance bounds.
//
// Usage:
//
//	mixtime -family regular -n 64
//	mixtime -family cycle -n 101 -source 5
//	mixtime -family rgg -n 256 -trials 80 -timeout 30s
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"

	"distwalk"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mixtime:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("mixtime", flag.ContinueOnError)
	var (
		family  = fs.String("family", "regular", "graph family: cycle|torus|complete|candy|regular|er|rgg")
		n       = fs.Int("n", 64, "approximate node count")
		seed    = fs.Uint64("seed", 1, "random seed")
		key     = fs.Uint64("key", 1, "request key (same key, same estimate)")
		source  = fs.Int("source", 0, "source node x for τ^x")
		trials  = fs.Int("trials", 0, "walks per tested length K (0 = the default ⌈6√n⌉)")
		exact   = fs.Bool("exact", true, "also compute the exact τ^x by matrix iteration")
		timeout = fs.Duration("timeout", 0, "abort the estimation after this long (0 = no limit)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	g, desc, err := makeGraph(*family, *n, *seed)
	if err != nil {
		return err
	}
	svc, err := distwalk.NewService(g, *seed)
	if err != nil {
		return err
	}
	defer svc.Close()
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	x := distwalk.NodeID(*source)
	est, err := svc.EstimateMixingTime(ctx, *key, x,
		distwalk.WithMixingOptions(distwalk.MixingOptions{Samples: *trials}))
	if err != nil {
		if errors.Is(err, distwalk.ErrNoMixing) {
			return fmt.Errorf("%w — bipartite families (even cycles/tori) never mix; pick odd sizes", err)
		}
		return err
	}
	fmt.Printf("graph: %s (n=%d, m=%d)\n", desc, g.N(), g.M())
	fmt.Printf("decentralized estimate: τ̃ = %d  (last failing ℓ = %d, K = %d samples, %d tests)\n",
		est.Tau, est.LastFail, est.Samples, est.Tests)
	fmt.Printf("simulated cost: %d rounds, %d messages (naive K·τ̃ would walk %d token-rounds)\n",
		est.Cost.Rounds, est.Cost.Messages, est.Samples*est.Tau)
	fmt.Printf("spectral gap bracket from τ̃: [%.4f, %.4f]\n", est.GapLo, est.GapHi)
	fmt.Printf("conductance bracket from τ̃:  [%.4f, %.4f]\n", est.CondLo, est.CondHi)
	if *exact {
		loose, err := distwalk.ExactMixingTime(g, x, 0.7, 10_000_000)
		if err != nil {
			return err
		}
		tight, err := distwalk.ExactMixingTime(g, x, 0.05, 10_000_000)
		if err != nil {
			return err
		}
		fmt.Printf("exact (centralized) reference: τ^x(0.7) = %d, τ^x(1/2e) = ", loose)
		mid, err := distwalk.ExactMixingTime(g, x, distwalk.EpsMix, 10_000_000)
		if err != nil {
			return err
		}
		fmt.Printf("%d, τ^x(0.05) = %d\n", mid, tight)
		gap, err := distwalk.SpectralGap(g)
		if err == nil {
			fmt.Printf("exact spectral gap: %.4f\n", gap)
		}
	}
	return nil
}

func makeGraph(family string, n int, seed uint64) (*distwalk.Graph, string, error) {
	switch family {
	case "cycle":
		if n%2 == 0 {
			n++ // odd cycles are non-bipartite
		}
		g, err := distwalk.Cycle(n)
		return g, fmt.Sprintf("cycle(%d)", n), err
	case "torus":
		side := intSqrt(n)
		if side%2 == 0 {
			side++ // odd sides keep the torus non-bipartite
		}
		g, err := distwalk.Torus(side, side)
		return g, fmt.Sprintf("torus %dx%d", side, side), err
	case "complete":
		g, err := distwalk.Complete(n)
		return g, fmt.Sprintf("K%d", n), err
	case "candy":
		g, err := distwalk.Candy(n/2, n/2)
		return g, fmt.Sprintf("candy(%d,%d)", n/2, n/2), err
	case "regular":
		g, err := distwalk.RandomRegular(n-n%2, 4, seed)
		return g, fmt.Sprintf("4-regular(%d)", n-n%2), err
	case "er":
		g, err := distwalk.ErdosRenyi(n, 8/float64(n), seed)
		return g, fmt.Sprintf("G(%d, 8/n)", n), err
	case "rgg":
		g, err := distwalk.GeometricRandom(n, 0, seed)
		return g, fmt.Sprintf("RGG(%d)", n), err
	}
	return nil, "", fmt.Errorf("unknown family %q", family)
}

func intSqrt(n int) int {
	s := 1
	for (s+1)*(s+1) <= n {
		s++
	}
	if s < 3 {
		s = 3
	}
	return s
}
