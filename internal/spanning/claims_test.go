package spanning

import (
	"testing"

	"distwalk/internal/core"
	"distwalk/internal/graph"
)

// rstCost is the mean rounds and messages of RandomSpanningTree from root
// 0 under prm, over seeds 1–6.
func rstCost(t *testing.T, g *graph.G, prm core.Params) (rounds, msgs float64) {
	t.Helper()
	const seeds = 6
	for seed := uint64(1); seed <= seeds; seed++ {
		w, err := core.NewWalker(g, seed, prm)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RandomSpanningTree(w, 0, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := ValidateTree(g, 0, res.Parent); err != nil {
			t.Fatal(err)
		}
		rounds += float64(res.Cost.Rounds)
		msgs += float64(res.Cost.Messages)
	}
	return rounds / seeds, msgs / seeds
}

// Theorem 4.1 against the honest baseline: the same doubling schedule with
// every phase's walks run as the naive k-walk (Lambda = 1<<30 forces it),
// which is what the code would otherwise run. The tree's stitched walks
// win only as n grows, so the rounds ratio must fall with n. The ceilings
// sit just above the ratios measured with the phases sharing one Phase 1
// inventory until λ doubles: 1.14, 1.02 and 0.72 the rounds, 5.0, 7.1 and
// 6.1 the messages.
func TestClaimRSTAgainstNaiveSchedule(t *testing.T) {
	prev := 0.0
	for _, c := range []struct {
		side          int
		ceiling, msgs float64
	}{{8, 1.2, 5.2}, {12, 1.07, 7.4}, {16, 0.77, 6.4}} {
		g, err := graph.Torus(c.side, c.side)
		if err != nil {
			t.Fatal(err)
		}
		rounds, msgs := rstCost(t, g, core.DefaultParams())
		naiveRounds, naiveMsgs := rstCost(t, g, core.Params{Lambda: 1 << 30, Eta: 1})
		ratio := rounds / naiveRounds
		t.Logf("Torus(%d,%d): %.0f rounds vs %.0f on the naive schedule (%.2f×), %.1f× the messages",
			c.side, c.side, rounds, naiveRounds, ratio, msgs/naiveMsgs)
		if ratio >= c.ceiling {
			t.Errorf("Torus(%d,%d): rounds ratio %.3f, want below %.2f", c.side, c.side, ratio, c.ceiling)
		}
		if m := msgs / naiveMsgs; m >= c.msgs {
			t.Errorf("Torus(%d,%d): %.2f× the naive schedule's messages, want below %.1f×", c.side, c.side, m, c.msgs)
		}
		if prev > 0 && ratio >= prev {
			t.Errorf("Torus(%d,%d): rounds ratio %.3f, not below the smaller torus's %.3f", c.side, c.side, ratio, prev)
		}
		prev = ratio
	}
}
