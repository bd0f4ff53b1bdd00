// Package matching implements bipartite matchings used to permute sparse
// matrices to a zero-free diagonal:
//
//   - MaxCardinalityPermWith: MC21-style augmenting-path maximum
//     cardinality matching on the pattern of A.
//   - BottleneckWith: maximum weight-cardinality matching (MWCM) in the
//     bottleneck sense used by Basker — among all perfect matchings, it
//     maximizes the smallest |a_ij| placed on the diagonal. This mirrors the
//     MC64 "bottleneck" option the paper says its MWCM resembles.
package matching

import (
	"errors"
	"math"

	"repro/internal/sparse"
)

// ErrStructurallySingular is returned when no perfect matching exists, i.e.
// the matrix cannot be permuted to a zero-free diagonal.
var ErrStructurallySingular = errors.New("matching: matrix is structurally singular")

// Workspace holds the reusable scratch of the matching searches. The
// bottleneck search runs O(log nnz) feasibility probes, each of which used
// to allocate its full scratch set; a Workspace carried across probes — and
// across Analyze calls, which run one matching per BTF front end plus one
// per fine-ND block — removes that churn from the serial symbolic phase.
type Workspace struct {
	rowOf, colOf, visited []int
	best                  []int
	pathRow               []int
	stack                 []augFrame
	mags                  []float64
}

// augFrame is one DFS frame of the augmenting-path search.
type augFrame struct{ col, ptr int }

// NewWorkspace returns an empty workspace; buffers grow on first use.
func NewWorkspace() *Workspace { return &Workspace{} }

// maxCardinalityFiltered matches using only entries with |value| >= thresh.
// thresh == 0 admits every stored entry (pattern matching). The returned
// slice aliases ws.rowOf and is valid only until the workspace is reused.
func maxCardinalityFiltered(a *sparse.CSC, thresh float64, ws *Workspace) ([]int, int) {
	n := a.N
	ws.rowOf = sparse.GrowInts(ws.rowOf, n)   // column -> matched row
	ws.colOf = sparse.GrowInts(ws.colOf, a.M) // row -> matched column
	rowOf, colOf := ws.rowOf, ws.colOf
	for j := range rowOf {
		rowOf[j] = -1
	}
	for i := range colOf {
		colOf[i] = -1
	}
	// Cheap assignment pass: match each column to the first free row.
	size := 0
	for j := 0; j < n; j++ {
		for p := a.Colptr[j]; p < a.Colptr[j+1]; p++ {
			if math.Abs(a.Values[p]) < thresh {
				continue
			}
			i := a.Rowidx[p]
			if colOf[i] == -1 {
				colOf[i] = j
				rowOf[j] = i
				size++
				break
			}
		}
	}
	// Augmenting path search (iterative DFS, one pass per unmatched column).
	// visited[i] == j0+1 marks row i as seen while augmenting column j0; the
	// array must start clean, since stale marks from a previous search could
	// collide with the same j0.
	ws.visited = sparse.GrowInts(ws.visited, a.M)
	visited := ws.visited
	for i := range visited {
		visited[i] = 0
	}
	// Explicit DFS stack: pairs of (column, next entry pointer). pathRow[d]
	// records the row chosen at depth d so the augmentation can be applied
	// once a free row is found.
	stack := ws.stack[:0]
	pathRow := ws.pathRow[:0]
	for j0 := 0; j0 < n; j0++ {
		if rowOf[j0] != -1 {
			continue
		}
		stack = stack[:0]
		pathRow = pathRow[:0]
		stack = append(stack, augFrame{j0, a.Colptr[j0]})
		found := false
		for len(stack) > 0 && !found {
			top := &stack[len(stack)-1]
			j := top.col
			advanced := false
			for p := top.ptr; p < a.Colptr[j+1]; p++ {
				if math.Abs(a.Values[p]) < thresh {
					continue
				}
				i := a.Rowidx[p]
				if visited[i] == j0+1 {
					continue
				}
				visited[i] = j0 + 1
				top.ptr = p + 1
				if colOf[i] == -1 {
					// Free row: augment along the stored path.
					pathRow = append(pathRow, i)
					for d := len(stack) - 1; d >= 0; d-- {
						cj := stack[d].col
						ri := pathRow[d]
						rowOf[cj] = ri
						colOf[ri] = cj
					}
					size++
					found = true
				} else {
					pathRow = append(pathRow, i)
					stack = append(stack, augFrame{colOf[i], a.Colptr[colOf[i]]})
				}
				advanced = true
				break
			}
			if !advanced {
				stack = stack[:len(stack)-1]
				if len(pathRow) > 0 {
					pathRow = pathRow[:len(pathRow)-1]
				}
			}
		}
	}
	ws.stack, ws.pathRow = stack, pathRow // keep grown capacity
	return rowOf, size
}

// Result describes a matching-derived row permutation.
type Result struct {
	// RowPerm is new-to-old: B = A(RowPerm, :) has B(j,j) != 0 for all j.
	RowPerm []int
	// Bottleneck is the smallest |a_ij| on the matched diagonal (only set
	// by BottleneckWith; MaxCardinalityPermWith leaves it 0).
	Bottleneck float64
}

// MaxCardinalityPermWith returns a row permutation placing nonzeros on the
// diagonal, or ErrStructurallySingular if none exists. Scratch comes from
// ws (nil allocates a private workspace).
func MaxCardinalityPermWith(a *sparse.CSC, ws *Workspace) (*Result, error) {
	if a.M != a.N {
		return nil, errors.New("matching: matrix must be square")
	}
	if ws == nil {
		ws = NewWorkspace()
	}
	rowOf, size := maxCardinalityFiltered(a, 0, ws)
	if size != a.N {
		return nil, ErrStructurallySingular
	}
	return &Result{RowPerm: append([]int(nil), rowOf...)}, nil
}

// BottleneckWith computes a maximum weight-cardinality matching that
// maximizes the minimum |a_ij| on the diagonal: the threshold is the
// largest entry magnitude t at which the filtered MC21 (entries with
// |a_ij| >= t; NaN entries pass every threshold) still finds a perfect
// matching, and the permutation is that probe's matching. All scratch —
// including every feasibility probe's — comes from ws (nil allocates a
// private workspace); only the returned permutation is freshly allocated.
//
// The threshold search bisects the entry magnitudes without sorting them.
// Every column needs an admitted entry, so no magnitude above the smallest
// column maximum is feasible; the first probe tests that bound itself,
// which usually ends the search. Later probes test the median of the
// undecided magnitudes, found by selection.
func BottleneckWith(a *sparse.CSC, ws *Workspace) (*Result, error) {
	if a.M != a.N {
		return nil, errors.New("matching: matrix must be square")
	}
	n := a.N
	if n == 0 {
		return &Result{RowPerm: []int{}}, nil
	}
	if ws == nil {
		ws = NewWorkspace()
	}
	// Threshold 0 admits every stored entry: plain maximum matching.
	rowOf, size := maxCardinalityFiltered(a, 0, ws)
	if size != n {
		return nil, ErrStructurallySingular
	}
	upper, maxMag := math.Inf(1), math.Inf(-1) // maxMag over non-NaN magnitudes
	for j := 0; j < n; j++ {
		colMax := -1.0
		for _, v := range a.Values[a.Colptr[j]:a.Colptr[j+1]] {
			m := math.Abs(v)
			if m != m {
				m = math.Inf(1) // NaN passes every threshold
			} else {
				maxMag = max(maxMag, m)
			}
			colMax = max(colMax, m)
		}
		upper = min(upper, colMax)
	}
	if maxMag < 0 {
		// Every entry is NaN: each threshold admits them all.
		return &Result{RowPerm: append([]int(nil), rowOf...), Bottleneck: math.NaN()}, nil
	}
	t := min(upper, maxMag) // the largest magnitude that may be feasible
	cands := ws.mags[:0]
	for _, v := range a.Values[:a.Nnz()] {
		if m := math.Abs(v); m <= t {
			cands = append(cands, m)
		}
	}
	best := 0.0
	for len(cands) > 0 {
		r, s := maxCardinalityFiltered(a, t, ws)
		if s == n {
			ws.best = append(ws.best[:0], r...)
			best = t
		}
		keep := cands[:0]
		for _, m := range cands {
			if (s == n && m > t) || (s != n && m < t) {
				keep = append(keep, m)
			}
		}
		if cands = keep; len(cands) > 0 {
			t = selectKth(cands, len(cands)/2)
		}
	}
	ws.mags = cands
	return &Result{RowPerm: append([]int(nil), ws.best...), Bottleneck: best}, nil
}

// selectKth returns the k-th smallest (0-based) of the NaN-free values x,
// reordering x (Hoare's selection).
func selectKth(x []float64, k int) float64 {
	lo, hi := 0, len(x)-1
	for lo < hi {
		pivot := x[(lo+hi)/2]
		i, j := lo, hi
		for i <= j {
			for x[i] < pivot {
				i++
			}
			for x[j] > pivot {
				j--
			}
			if i <= j {
				x[i], x[j] = x[j], x[i]
				i, j = i+1, j-1
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return x[k]
		}
	}
	return x[k]
}
