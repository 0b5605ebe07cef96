package stats

import (
	"math"
	"testing"

	"distwalk/internal/rng"
)

func TestMean(t *testing.T) {
	if m := Mean([]float64{2, 4, 4, 4, 5, 5, 7, 9}); m != 5 {
		t.Fatalf("mean = %v, want 5", m)
	}
	if Mean(nil) != 0 {
		t.Fatal("empty mean should be 0")
	}
}

func TestChiSquareExact(t *testing.T) {
	// Observed [10, 20] vs fair coin with 30 draws: expected 15 each,
	// stat = 25/15 * 2 = 10/3.
	stat, df, err := ChiSquare([]int{10, 20}, []float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if df != 1 || math.Abs(stat-10.0/3) > 1e-12 {
		t.Fatalf("stat=%v df=%d", stat, df)
	}
}

func TestChiSquareValidation(t *testing.T) {
	cases := []struct {
		name string
		obs  []int
		exp  []float64
	}{
		{"length mismatch", []int{1, 2}, []float64{1}},
		{"too short", []int{1}, []float64{1}},
		{"negative count", []int{-1, 2}, []float64{0.5, 0.5}},
		{"zero total", []int{0, 0}, []float64{0.5, 0.5}},
		{"bad probability", []int{1, 2}, []float64{0, 1}},
		{"probs do not sum", []int{1, 2}, []float64{0.4, 0.4}},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			if _, _, err := ChiSquare(tt.obs, tt.exp); err == nil {
				t.Fatal("invalid input accepted")
			}
		})
	}
}

func TestChiSquarePValueKnownValues(t *testing.T) {
	// Known quantiles: P(X ≥ 3.841 | df=1) = 0.05, P(X ≥ 9.210 | df=2) = 0.01.
	cases := []struct {
		stat float64
		df   int
		want float64
	}{
		{3.841, 1, 0.05},
		{9.210, 2, 0.01},
		{0, 3, 1.0},
		{18.467, 10, 0.0478}, // ~0.048
	}
	for _, tt := range cases {
		p, err := ChiSquarePValue(tt.stat, tt.df)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(p-tt.want) > 0.003 {
			t.Fatalf("p(%v, df=%d) = %v, want %v", tt.stat, tt.df, p, tt.want)
		}
	}
}

func TestChiSquarePValueValidation(t *testing.T) {
	if _, err := ChiSquarePValue(1, 0); err == nil {
		t.Fatal("df=0 accepted")
	}
	if _, err := ChiSquarePValue(-1, 1); err == nil {
		t.Fatal("negative stat accepted")
	}
}

func TestUniformityPValueOnFairSampler(t *testing.T) {
	r := rng.New(5)
	counts := make([]int, 10)
	for i := 0; i < 10000; i++ {
		counts[r.Intn(10)]++
	}
	p, err := UniformityPValue(counts)
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.001 {
		t.Fatalf("fair sampler rejected: p = %v", p)
	}
}

func TestUniformityPValueOnBiasedSampler(t *testing.T) {
	r := rng.New(6)
	counts := make([]int, 10)
	for i := 0; i < 10000; i++ {
		v := r.Intn(11) // bucket 0 gets double probability
		if v == 10 {
			v = 0
		}
		counts[v]++
	}
	p, err := UniformityPValue(counts)
	if err != nil {
		t.Fatal(err)
	}
	if p > 1e-6 {
		t.Fatalf("biased sampler not rejected: p = %v", p)
	}
}

func TestLogLogSlopeRecoversExponents(t *testing.T) {
	for _, exp := range []float64{0.5, 1.0, 2.0} {
		var xs, ys []float64
		for _, x := range []float64{10, 100, 1000, 10000} {
			xs = append(xs, x)
			ys = append(ys, 3*math.Pow(x, exp))
		}
		got, err := LogLogSlope(xs, ys)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-exp) > 1e-9 {
			t.Fatalf("slope = %v, want %v", got, exp)
		}
	}
}

func TestLogLogSlopeValidation(t *testing.T) {
	if _, err := LogLogSlope([]float64{1}, []float64{1}); err == nil {
		t.Fatal("short input accepted")
	}
	if _, err := LogLogSlope([]float64{1, -2}, []float64{1, 2}); err == nil {
		t.Fatal("negative input accepted")
	}
	if _, err := LogLogSlope([]float64{2, 2}, []float64{1, 3}); err == nil {
		t.Fatal("degenerate x accepted")
	}
}
