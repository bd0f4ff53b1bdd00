package sparse

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// Differential tests of the sort-free column kernels (SortColumns, Permute,
// PermuteWithMap, SymbolicUnion) against naive references, on inputs with
// unsorted columns, empty columns, duplicate row indices and columns longer
// than shortColumn.

// messyCSC builds an n×n matrix whose columns are unsorted. Roughly one
// column in six is empty and one in eight is long (more than shortColumn
// entries); with dups, row indices may repeat within a column. Values are
// distinct, so any reordering of duplicates is visible.
func messyCSC(rng *rand.Rand, n int, dups bool) *CSC {
	a := &CSC{M: n, N: n, Colptr: make([]int, n+1)}
	for j := 0; j < n; j++ {
		var k int
		switch r := rng.Intn(24); {
		case r < 4:
			k = 0
		case r < 7:
			k = shortColumn + 1 + rng.Intn(3*shortColumn)
		default:
			k = 1 + rng.Intn(8)
		}
		if !dups && k > n {
			k = n
		}
		var rows []int
		if dups {
			for t := 0; t < k; t++ {
				rows = append(rows, rng.Intn(n))
			}
		} else {
			rows = rng.Perm(n)[:k]
		}
		for _, i := range rows {
			a.Rowidx = append(a.Rowidx, i)
			a.Values = append(a.Values, float64(len(a.Values)+1))
		}
		a.Colptr[j+1] = len(a.Rowidx)
	}
	return a
}

// refSortColumns is the naive reference: a stable sort of every column's
// (row, value) pairs by row.
func refSortColumns(a *CSC) *CSC {
	b := a.Clone()
	if a.Values == nil {
		b.Values = nil
	}
	for j := 0; j < b.N; j++ {
		p0, p1 := b.Colptr[j], b.Colptr[j+1]
		idx := make([]int, p1-p0)
		for t := range idx {
			idx[t] = p0 + t
		}
		sort.SliceStable(idx, func(x, y int) bool { return a.Rowidx[idx[x]] < a.Rowidx[idx[y]] })
		for t, src := range idx {
			b.Rowidx[p0+t] = a.Rowidx[src]
			if b.Values != nil {
				b.Values[p0+t] = a.Values[src]
			}
		}
	}
	return b
}

// refPermute gathers A(p, q) column by column, then sorts by the reference.
func refPermute(a *CSC, p, q []int) *CSC {
	pinv := InversePerm(p)
	b := &CSC{M: a.M, N: a.N, Colptr: make([]int, a.N+1)}
	for k := 0; k < a.N; k++ {
		j := k
		if q != nil {
			j = q[k]
		}
		for t := a.Colptr[j]; t < a.Colptr[j+1]; t++ {
			i := a.Rowidx[t]
			if pinv != nil {
				i = pinv[i]
			}
			b.Rowidx = append(b.Rowidx, i)
			if a.Values != nil {
				b.Values = append(b.Values, a.Values[t])
			}
		}
		b.Colptr[k+1] = len(b.Rowidx)
	}
	return refSortColumns(b)
}

// refUnion builds the pattern of A + Aᵀ through a dense boolean matrix.
func refUnion(a *CSC) *CSC {
	n := a.N
	dense := make([]bool, n*n)
	for j := 0; j < n; j++ {
		for _, i := range a.Rowidx[a.Colptr[j]:a.Colptr[j+1]] {
			dense[j*n+i] = true
			dense[i*n+j] = true
		}
	}
	u := &CSC{M: n, N: n, Colptr: make([]int, n+1)}
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			if dense[j*n+i] {
				u.Rowidx = append(u.Rowidx, i)
			}
		}
		u.Colptr[j+1] = len(u.Rowidx)
	}
	return u
}

// sameCSC reports the first difference between two matrices (nil Values
// must match nil Values), or nil.
func sameCSC(got, want *CSC) error {
	if got.M != want.M || got.N != want.N {
		return fmt.Errorf("shape %d×%d, want %d×%d", got.M, got.N, want.M, want.N)
	}
	if (got.Values == nil) != (want.Values == nil) {
		return fmt.Errorf("nil Values = %v, want %v", got.Values == nil, want.Values == nil)
	}
	for j := 0; j <= want.N; j++ {
		if got.Colptr[j] != want.Colptr[j] {
			return fmt.Errorf("Colptr[%d] = %d, want %d", j, got.Colptr[j], want.Colptr[j])
		}
	}
	nnz := want.Nnz()
	if len(got.Rowidx) != nnz || (want.Values != nil && len(got.Values) != nnz) {
		return fmt.Errorf("entry slices sized %d/%d, want %d", len(got.Rowidx), len(got.Values), nnz)
	}
	for p := 0; p < nnz; p++ {
		if got.Rowidx[p] != want.Rowidx[p] {
			return fmt.Errorf("Rowidx[%d] = %d, want %d", p, got.Rowidx[p], want.Rowidx[p])
		}
		if want.Values != nil && got.Values[p] != want.Values[p] {
			return fmt.Errorf("Values[%d] = %v, want %v", p, got.Values[p], want.Values[p])
		}
	}
	return nil
}

// checkPattern validates a pattern-only matrix: nil Values, monotone
// Colptr, in-range rows, strictly ascending within each column.
func checkPattern(a *CSC) error {
	if a.Values != nil {
		return fmt.Errorf("pattern carries values")
	}
	if len(a.Colptr) != a.N+1 || a.Colptr[0] != 0 || a.Colptr[a.N] != len(a.Rowidx) {
		return fmt.Errorf("malformed column pointers")
	}
	for j := 0; j < a.N; j++ {
		prev := -1
		for _, i := range a.Rowidx[a.Colptr[j]:a.Colptr[j+1]] {
			if i <= prev || i >= a.M {
				return fmt.Errorf("column %d: row %d after %d", j, i, prev)
			}
			prev = i
		}
	}
	return nil
}

// hasEntry reports whether (i, j) is stored, by a linear column scan.
func hasEntry(a *CSC, i, j int) bool {
	for _, r := range a.Rowidx[a.Colptr[j]:a.Colptr[j+1]] {
		if r == i {
			return true
		}
	}
	return false
}

func TestSortColumnsMatchesStableReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(150)
		a := messyCSC(rng, n, trial%2 == 1)
		want := refSortColumns(a)
		got := a.Clone()
		got.SortColumns()
		if err := sameCSC(got, want); err != nil {
			t.Fatalf("trial %d (n=%d): %v", trial, n, err)
		}
	}
}

func TestPermuteMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(150)
		a := messyCSC(rng, n, trial%4 == 1)
		if trial%3 == 2 {
			a.Values = nil
		}
		var p, q []int
		if trial%5 != 4 {
			p = rng.Perm(n)
		}
		if trial%7 != 6 {
			q = rng.Perm(n)
		}
		want := refPermute(a, p, q)
		if err := sameCSC(a.Permute(p, q), want); err != nil {
			t.Fatalf("Permute trial %d (n=%d): %v", trial, n, err)
		}
		got, src := a.PermuteWithMap(p, q)
		if err := sameCSC(got, want); err != nil {
			t.Fatalf("PermuteWithMap trial %d (n=%d): %v", trial, n, err)
		}
		for t2, s := range src {
			if a.Values != nil && a.Values[s] != got.Values[t2] {
				t.Fatalf("trial %d: entry map %d -> %d carries the wrong value", trial, t2, s)
			}
		}
	}
}

func TestSymbolicUnionMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		n := rng.Intn(150)
		a := messyCSC(rng, n, trial%2 == 1)
		if trial%3 == 2 {
			a.Values = nil
		}
		got := a.SymbolicUnion()
		if err := checkPattern(got); err != nil {
			t.Fatalf("trial %d (n=%d): %v", trial, n, err)
		}
		if err := sameCSC(got, refUnion(a)); err != nil {
			t.Fatalf("trial %d (n=%d): %v", trial, n, err)
		}
	}
}
