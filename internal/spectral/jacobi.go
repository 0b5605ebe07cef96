package spectral

import (
	"fmt"
	"math"
	"sort"
)

// SymEig returns the eigenvalues of the symmetric matrix a in
// non-increasing order, computed with the cyclic Jacobi rotation method.
// The input is modified in place. Convergence is quadratic; for the sizes
// used here (n ≤ 2000) a handful of sweeps suffice.
func SymEig(a [][]float64) ([]float64, error) {
	n := len(a)
	for i, row := range a {
		if len(row) != n {
			return nil, fmt.Errorf("spectral: matrix is not square (row %d has %d cols, want %d)", i, len(row), n)
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if math.Abs(a[i][j]-a[j][i]) > 1e-9 {
				return nil, fmt.Errorf("spectral: matrix is not symmetric at (%d,%d)", i, j)
			}
		}
	}
	const (
		maxSweeps = 100
		tol       = 1e-12
	)
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := offDiagNorm(a)
		if off < tol {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				rotate(a, p, q)
			}
		}
	}
	if off := offDiagNorm(a); off > 1e-7 {
		return nil, fmt.Errorf("spectral: Jacobi did not converge (off-diagonal norm %v)", off)
	}
	eig := make([]float64, n)
	for i := range eig {
		eig[i] = a[i][i]
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(eig)))
	return eig, nil
}

// rotate zeroes a[p][q] with a Givens rotation applied symmetrically.
func rotate(a [][]float64, p, q int) {
	apq := a[p][q]
	if apq == 0 {
		return
	}
	theta := (a[q][q] - a[p][p]) / (2 * apq)
	var t float64
	if theta >= 0 {
		t = 1 / (theta + math.Sqrt(1+theta*theta))
	} else {
		t = -1 / (-theta + math.Sqrt(1+theta*theta))
	}
	c := 1 / math.Sqrt(1+t*t)
	s := t * c
	tau := s / (1 + c)

	app, aqq := a[p][p], a[q][q]
	a[p][p] = app - t*apq
	a[q][q] = aqq + t*apq
	a[p][q] = 0
	a[q][p] = 0
	for i := range a {
		if i == p || i == q {
			continue
		}
		aip, aiq := a[i][p], a[i][q]
		a[i][p] = aip - s*(aiq+tau*aip)
		a[p][i] = a[i][p]
		a[i][q] = aiq + s*(aip-tau*aiq)
		a[q][i] = a[i][q]
	}
}

func offDiagNorm(a [][]float64) float64 {
	sum := 0.0
	for i := range a {
		for j := i + 1; j < len(a); j++ {
			sum += a[i][j] * a[i][j]
		}
	}
	return math.Sqrt(sum)
}
