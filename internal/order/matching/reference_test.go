package matching

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/sparse"
)

// bottleneckBySort is the sort-based threshold search BottleneckWith
// replaced, kept as its reference: sort every entry magnitude, drop
// repeats, and binary search the ascending list for the last threshold
// that still admits a perfect matching.
func bottleneckBySort(a *sparse.CSC) (*Result, error) {
	n := a.N
	if n == 0 {
		return &Result{RowPerm: []int{}}, nil
	}
	ws := NewWorkspace()
	var mags []float64
	for _, v := range a.Values[:a.Nnz()] {
		mags = append(mags, math.Abs(v))
	}
	sort.Float64s(mags)
	distinct := mags[:0]
	for i, v := range mags {
		if i == 0 || v != mags[i-1] {
			distinct = append(distinct, v)
		}
	}
	rowOf, size := maxCardinalityFiltered(a, 0, ws)
	if size != n {
		return nil, ErrStructurallySingular
	}
	best := append([]int(nil), rowOf...)
	bestThresh := 0.0
	lo, hi := 0, len(distinct)-1
	for lo <= hi {
		mid := (lo + hi) / 2
		r, s := maxCardinalityFiltered(a, distinct[mid], ws)
		if s == n {
			best = append(best[:0], r...)
			bestThresh = distinct[mid]
			lo = mid + 1
		} else {
			hi = mid - 1
		}
	}
	return &Result{RowPerm: best, Bottleneck: bestThresh}, nil
}

// palette holds the magnitudes that stress the threshold search: zeros of
// both signs, repeats, infinities and NaN.
var palette = []float64{0, math.Copysign(0, -1), 1, -1, 2, -2, 0.5, 3, 1e-300, math.Inf(1), math.Inf(-1), math.NaN()}

// cscFromTriples builds an n×n CSC from (row, col, value) triples in the
// given order: columns may be unsorted and hold repeated rows.
func cscFromTriples(n int, rows, cols []int, vals []float64) *sparse.CSC {
	a := &sparse.CSC{M: n, N: n, Colptr: make([]int, n+1)}
	for j := 0; j < n; j++ {
		for t := range cols {
			if cols[t] == j {
				a.Rowidx = append(a.Rowidx, rows[t])
				a.Values = append(a.Values, vals[t])
			}
		}
		a.Colptr[j+1] = len(a.Rowidx)
	}
	return a
}

// checkAgainstSort fails unless BottleneckWith and the sort-based
// reference agree on the error, the bottleneck value (bit for bit, or both
// NaN) and the row permutation.
func checkAgainstSort(t *testing.T, a *sparse.CSC, ws *Workspace) {
	t.Helper()
	want, werr := bottleneckBySort(a)
	got, gerr := BottleneckWith(a, ws)
	if gerr != werr {
		t.Fatalf("err = %v, want %v", gerr, werr)
	}
	if werr != nil {
		return
	}
	gb, wb := got.Bottleneck, want.Bottleneck
	if math.Float64bits(gb) != math.Float64bits(wb) && !(gb != gb && wb != wb) {
		t.Fatalf("Bottleneck = %v, want %v", gb, wb)
	}
	if !slices.Equal(got.RowPerm, want.RowPerm) {
		t.Fatalf("RowPerm = %v, want %v", got.RowPerm, want.RowPerm)
	}
}

func TestBottleneckMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	ws := NewWorkspace() // shared, as Analyze shares it across blocks
	for trial := 0; trial < 3000; trial++ {
		n := 1 + rng.Intn(12)
		var rows, cols []int
		var vals []float64
		if trial%3 != 0 {
			// Plant a permutation so most trials are nonsingular.
			for j, i := range rng.Perm(n) {
				rows, cols = append(rows, i), append(cols, j)
				vals = append(vals, palette[rng.Intn(len(palette))])
			}
		}
		for e := rng.Intn(3 * n); e > 0; e-- {
			rows, cols = append(rows, rng.Intn(n)), append(cols, rng.Intn(n))
			v := palette[rng.Intn(len(palette))]
			if trial%2 == 0 {
				v = rng.NormFloat64()
			}
			vals = append(vals, v)
		}
		checkAgainstSort(t, cscFromTriples(n, rows, cols, vals), ws)
	}
}

func TestBottleneckMatchesSortReferenceLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 20; trial++ {
		a := randSquareWithDiag(rng, 50+rng.Intn(150), 0.05)
		if trial%2 == 1 {
			// Few distinct magnitudes: long runs of equal candidates.
			for p := range a.Values {
				a.Values[p] = float64(rng.Intn(4))
			}
		}
		checkAgainstSort(t, a, nil)
	}
}

// FuzzBottleneck decodes an n×n matrix from the input — one byte for n,
// then (row, col, palette index) byte triples — and checks BottleneckWith
// against the sort-based reference.
func FuzzBottleneck(f *testing.F) {
	f.Add([]byte{2, 0, 0, 2, 1, 1, 4, 0, 1, 11})
	f.Add([]byte{3, 0, 0, 11, 1, 1, 11, 2, 2, 11})
	f.Add([]byte{3, 0, 1, 9, 1, 0, 10, 2, 2, 1, 0, 0, 0, 1, 1, 1})
	f.Add([]byte{4, 0, 0, 2, 1, 0, 3, 1, 1, 2, 2, 2, 7, 3, 3, 7, 2, 3, 8, 3, 2, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%10
		var rows, cols []int
		var vals []float64
		for b := data[1:]; len(b) >= 3; b = b[3:] {
			rows = append(rows, int(b[0])%n)
			cols = append(cols, int(b[1])%n)
			vals = append(vals, palette[int(b[2])%len(palette)])
		}
		checkAgainstSort(t, cscFromTriples(n, rows, cols, vals), nil)
	})
}
