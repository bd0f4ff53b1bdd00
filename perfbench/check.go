package main

import (
	"fmt"
	"math"

	basker "repro"
)

// residualTol bounds the normwise relative residual
// ‖b − A·x‖∞ / (‖A‖∞·‖x‖∞ + ‖b‖∞) an answer may have and still count as
// correct. Backward-stable solves of these well-conditioned systems land
// near 1e-16; 1e-10 leaves room for pivot growth without letting a wrong
// answer through.
const residualTol = 1e-10

// checker holds the scratch a residual check needs for one dimension.
type checker struct {
	ax []float64
}

// check verifies that x solves a·x = b to residualTol; anorm is
// normInf(a), computed once per matrix outside the timed loops.
func (c *checker) check(a *basker.Matrix, anorm float64, x, b []float64) error {
	if len(x) != a.N || len(b) != a.M {
		return fmt.Errorf("answer has %d entries for a %d×%d system", len(x), a.M, a.N)
	}
	if cap(c.ax) < a.M {
		c.ax = make([]float64, a.M)
	}
	ax := c.ax[:a.M]
	a.MulVec(ax, x)
	var rmax, bmax, xmax float64
	for i := range ax {
		rmax = math.Max(rmax, math.Abs(b[i]-ax[i]))
		bmax = math.Max(bmax, math.Abs(b[i]))
	}
	for _, v := range x {
		xmax = math.Max(xmax, math.Abs(v))
	}
	rel := rmax / (anorm*xmax + bmax)
	if !(rel <= residualTol) { // also catches NaN
		return fmt.Errorf("relative residual %.3g exceeds %.0e", rel, residualTol)
	}
	return nil
}

// normInf is the maximum absolute row sum of a.
func normInf(a *basker.Matrix) float64 {
	rows := make([]float64, a.M)
	for j := 0; j < a.N; j++ {
		for p := a.Colptr[j]; p < a.Colptr[j+1]; p++ {
			rows[a.Rowidx[p]] += math.Abs(a.Values[p])
		}
	}
	m := 0.0
	for _, r := range rows {
		m = math.Max(m, r)
	}
	return m
}
