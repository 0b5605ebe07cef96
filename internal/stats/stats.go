// Package stats provides the statistics the paper's claims are judged by:
// chi-square goodness-of-fit tests (uniformity of spanning trees, endpoint
// distributions) and log-log slope fits (growth exponents of round
// counts). Its importers are the tests that hold each claim; README
// "Claims" is their index.
package stats

import (
	"fmt"
	"math"
)

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ChiSquare computes the chi-square statistic of observed counts against
// expected probabilities, with len(observed)−1 degrees of freedom.
// Expected probabilities must be positive and sum to ~1.
func ChiSquare(observed []int, expected []float64) (stat float64, df int, err error) {
	if len(observed) != len(expected) || len(observed) < 2 {
		return 0, 0, fmt.Errorf("stats: need matching lengths >= 2, got %d, %d", len(observed), len(expected))
	}
	total := 0
	for _, o := range observed {
		if o < 0 {
			return 0, 0, fmt.Errorf("stats: negative count %d", o)
		}
		total += o
	}
	if total == 0 {
		return 0, 0, fmt.Errorf("stats: no observations")
	}
	psum := 0.0
	for i, p := range expected {
		if p <= 0 {
			return 0, 0, fmt.Errorf("stats: expected probability %v at index %d not positive", p, i)
		}
		psum += p
	}
	if math.Abs(psum-1) > 1e-6 {
		return 0, 0, fmt.Errorf("stats: expected probabilities sum to %v, want 1", psum)
	}
	for i, o := range observed {
		e := expected[i] * float64(total)
		d := float64(o) - e
		stat += d * d / e
	}
	return stat, len(observed) - 1, nil
}

// ChiSquarePValue returns P(X ≥ stat) for X ~ chi-square with df degrees of
// freedom, via the regularized upper incomplete gamma function.
func ChiSquarePValue(stat float64, df int) (float64, error) {
	if df < 1 {
		return 0, fmt.Errorf("stats: df must be >= 1, got %d", df)
	}
	if stat < 0 {
		return 0, fmt.Errorf("stats: negative statistic %v", stat)
	}
	return gammaQ(float64(df)/2, stat/2)
}

// UniformityPValue is a convenience wrapper: chi-square p-value of observed
// counts against the uniform distribution over len(observed) cells.
func UniformityPValue(observed []int) (float64, error) {
	exp := make([]float64, len(observed))
	for i := range exp {
		exp[i] = 1 / float64(len(exp))
	}
	stat, df, err := ChiSquare(observed, exp)
	if err != nil {
		return 0, err
	}
	return ChiSquarePValue(stat, df)
}

// LogLogSlope fits a least-squares line to (log x, log y) and returns its
// slope — the empirical growth exponent of y as a function of x. All inputs
// must be positive.
func LogLogSlope(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0, fmt.Errorf("stats: need matching lengths >= 2, got %d, %d", len(xs), len(ys))
	}
	lx := make([]float64, len(xs))
	ly := make([]float64, len(ys))
	for i := range xs {
		if xs[i] <= 0 || ys[i] <= 0 {
			return 0, fmt.Errorf("stats: log-log fit needs positive data, got (%v,%v)", xs[i], ys[i])
		}
		lx[i] = math.Log(xs[i])
		ly[i] = math.Log(ys[i])
	}
	return slope(lx, ly)
}

func slope(xs, ys []float64) (float64, error) {
	mx, my := Mean(xs), Mean(ys)
	num, den := 0.0, 0.0
	for i := range xs {
		num += (xs[i] - mx) * (ys[i] - my)
		den += (xs[i] - mx) * (xs[i] - mx)
	}
	if den == 0 {
		return 0, fmt.Errorf("stats: degenerate fit (all x equal)")
	}
	return num / den, nil
}

// gammaQ computes the regularized upper incomplete gamma function Q(a, x)
// with the classic series/continued-fraction split (Numerical Recipes
// gammp/gammq).
func gammaQ(a, x float64) (float64, error) {
	if x < 0 || a <= 0 {
		return 0, fmt.Errorf("stats: invalid gammaQ arguments a=%v x=%v", a, x)
	}
	if x == 0 {
		return 1, nil
	}
	if x < a+1 {
		p, err := gammaSeriesP(a, x)
		if err != nil {
			return 0, err
		}
		return 1 - p, nil
	}
	return gammaContinuedQ(a, x)
}

// gammaSeriesP evaluates P(a,x) by its power series (converges for x < a+1).
func gammaSeriesP(a, x float64) (float64, error) {
	const (
		maxIter = 500
		eps     = 1e-14
	)
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1 / a
	del := sum
	for i := 0; i < maxIter; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*eps {
			return sum * math.Exp(-x+a*math.Log(x)-lg), nil
		}
	}
	return 0, fmt.Errorf("stats: gamma series did not converge (a=%v x=%v)", a, x)
}

// gammaContinuedQ evaluates Q(a,x) by Lentz's continued fraction
// (converges for x >= a+1).
func gammaContinuedQ(a, x float64) (float64, error) {
	const (
		maxIter = 500
		eps     = 1e-14
		tiny    = 1e-300
	)
	lg, _ := math.Lgamma(a)
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i <= maxIter; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			return math.Exp(-x+a*math.Log(x)-lg) * h, nil
		}
	}
	return 0, fmt.Errorf("stats: gamma continued fraction did not converge (a=%v x=%v)", a, x)
}
