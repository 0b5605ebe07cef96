package spectral

import (
	"math"
	"testing"

	"distwalk/internal/graph"
	"distwalk/internal/rng"
)

func TestSymEigDiagonal(t *testing.T) {
	a := [][]float64{{3, 0}, {0, -1}}
	eig, err := SymEig(a)
	if err != nil {
		t.Fatal(err)
	}
	if eig[0] != 3 || eig[1] != -1 {
		t.Fatalf("eig = %v", eig)
	}
}

func TestSymEig2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1.
	eig, err := SymEig([][]float64{{2, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(eig[0]-3) > 1e-9 || math.Abs(eig[1]-1) > 1e-9 {
		t.Fatalf("eig = %v, want [3 1]", eig)
	}
}

func TestSymEigRejectsAsymmetric(t *testing.T) {
	if _, err := SymEig([][]float64{{1, 2}, {0, 1}}); err == nil {
		t.Fatal("asymmetric matrix accepted")
	}
	if _, err := SymEig([][]float64{{1, 2}}); err == nil {
		t.Fatal("non-square matrix accepted")
	}
}

func TestTransitionSpectrumCompleteGraph(t *testing.T) {
	// K_n has transition eigenvalues 1 and -1/(n-1) (n-1 fold).
	g, err := graph.Complete(5)
	if err != nil {
		t.Fatal(err)
	}
	eig, err := TransitionSpectrum(g)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(eig[0]-1) > 1e-9 {
		t.Fatalf("top eigenvalue %v, want 1", eig[0])
	}
	for _, l := range eig[1:] {
		if math.Abs(l+0.25) > 1e-9 {
			t.Fatalf("eig = %v, want -0.25 repeated", eig)
		}
	}
}

func TestTransitionSpectrumCycle(t *testing.T) {
	// C_n has eigenvalues cos(2πk/n).
	g, err := graph.Cycle(6)
	if err != nil {
		t.Fatal(err)
	}
	eig, err := TransitionSpectrum(g)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Cos(2 * math.Pi / 6)
	if math.Abs(eig[1]-want) > 1e-9 {
		t.Fatalf("λ₂ = %v, want %v", eig[1], want)
	}
	// Bipartite: bottom eigenvalue is -1.
	if math.Abs(eig[len(eig)-1]+1) > 1e-9 {
		t.Fatalf("λ_min = %v, want -1", eig[len(eig)-1])
	}
}

func TestSpectralGapOrdersFamilies(t *testing.T) {
	// Expanders have much larger gaps than cycles of the same size.
	cyc, err := graph.Cycle(24)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := graph.ConnectedRandomRegular(24, 4, rng.New(1), 200)
	if err != nil {
		t.Fatal(err)
	}
	gc, err := SpectralGap(cyc)
	if err != nil {
		t.Fatal(err)
	}
	ge, err := SpectralGap(exp)
	if err != nil {
		t.Fatal(err)
	}
	if ge < 4*gc {
		t.Fatalf("expander gap %v not ≫ cycle gap %v", ge, gc)
	}
}

func TestCheegerBounds(t *testing.T) {
	lo, hi := CheegerBounds(0.5)
	if lo != 0.25 || math.Abs(hi-1) > 1e-12 {
		t.Fatalf("bounds = (%v, %v)", lo, hi)
	}
	lo, hi = CheegerBounds(-1)
	if lo != 0 || hi != 0 {
		t.Fatalf("negative gap bounds = (%v, %v)", lo, hi)
	}
}

func TestMixingTimeBracket(t *testing.T) {
	lo, hi, err := MixingTimeBracket(0.1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lo-10) > 1e-9 || math.Abs(hi-math.Log(100)*10) > 1e-9 {
		t.Fatalf("bracket = (%v, %v)", lo, hi)
	}
	if _, _, err := MixingTimeBracket(0, 10); err == nil {
		t.Fatal("zero gap accepted")
	}
}

func TestMixingTimeFromCompleteGraph(t *testing.T) {
	// On K_n the walk is within ε of stationary after one step.
	g, err := graph.Complete(10)
	if err != nil {
		t.Fatal(err)
	}
	tm, err := MixingTimeFrom(g, 0, EpsMix, 100)
	if err != nil {
		t.Fatal(err)
	}
	if tm > 2 {
		t.Fatalf("K10 mixing time = %d, want <= 2", tm)
	}
}

func TestMixingTimeRespectsSpectralBracket(t *testing.T) {
	g, err := graph.ConnectedRandomRegular(30, 4, rng.New(7), 200)
	if err != nil {
		t.Fatal(err)
	}
	gap, err := SpectralGap(g)
	if err != nil {
		t.Fatal(err)
	}
	_, hi, err := MixingTimeBracket(gap, g.N())
	if err != nil {
		t.Fatal(err)
	}
	// τ_mix = max_x τ^x: every start's mixing time stays under the
	// ln(n)/gap upper bound, which holds up to small constants; allow
	// slack 3x.
	for x := range g.N() {
		tm, err := MixingTimeFrom(g, graph.NodeID(x), EpsMix, 10000)
		if err != nil {
			t.Fatal(err)
		}
		if float64(tm) > 3*hi+3 {
			t.Fatalf("measured τ^%d=%d far above spectral bound %v", x, tm, hi)
		}
	}
}

func TestMixingTimeFromBipartiteFails(t *testing.T) {
	g, err := graph.Cycle(8) // bipartite: plain walk never mixes
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MixingTimeFrom(g, 0, EpsMix, 2000); err == nil {
		t.Fatal("bipartite graph reported a mixing time")
	}
}

func TestMixingTimeFromRejectsBadEps(t *testing.T) {
	g, _ := graph.Complete(4)
	if _, err := MixingTimeFrom(g, 0, 0, 10); err == nil {
		t.Fatal("eps=0 accepted")
	}
}

func TestMixingTimeCycleGrowsQuadratically(t *testing.T) {
	// τ_mix of an odd cycle grows ~n²; check the ratio between n=9 and
	// n=27 is near 9.
	t9, err := mixOdd(t, 9)
	if err != nil {
		t.Fatal(err)
	}
	t27, err := mixOdd(t, 27)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(t27) / float64(t9)
	if ratio < 5 || ratio > 14 {
		t.Fatalf("τ(27)/τ(9) = %v, want ≈ 9", ratio)
	}
}

func mixOdd(t *testing.T, n int) (int, error) {
	t.Helper()
	g, err := graph.Cycle(n)
	if err != nil {
		return 0, err
	}
	return MixingTimeFrom(g, 0, EpsMix, 100000)
}
