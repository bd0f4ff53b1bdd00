// Package btf computes the block triangular form (BTF) of a square sparse
// matrix: a row permutation placing nonzeros on the diagonal (from a
// matching) followed by a symmetric permutation grouping the strongly
// connected components of the induced digraph, so that
//
//	P A Q = [ A11 A12 ... A1k ]
//	        [     A22 ...     ]
//	        [          .      ]
//	        [             Akk ]
//
// is upper block triangular. Only the diagonal blocks need factoring.
// This is the coarse structure KLU and Basker both rely on.
package btf

import (
	"repro/internal/order/matching"
	"repro/internal/sparse"
)

// Form describes a computed block triangular form.
type Form struct {
	// RowPerm and ColPerm are new-to-old: B = A(RowPerm, ColPerm) is upper
	// block triangular with zero-free diagonal.
	RowPerm []int
	ColPerm []int
	// BlockPtr has length NumBlocks+1; block b spans rows/columns
	// BlockPtr[b]..BlockPtr[b+1] of the permuted matrix.
	BlockPtr []int
}

// NumBlocks reports the number of diagonal blocks.
func (f *Form) NumBlocks() int { return len(f.BlockPtr) - 1 }

// LargestBlock returns the size of the largest diagonal block.
func (f *Form) LargestBlock() int {
	max := 0
	for b := 0; b < f.NumBlocks(); b++ {
		if s := f.BlockPtr[b+1] - f.BlockPtr[b]; s > max {
			max = s
		}
	}
	return max
}

// PercentInSmallBlocks reports the percentage of matrix rows that live in
// diagonal blocks strictly smaller than threshold — the "BTF %" statistic
// from Table I of the paper (small independent subblocks handled by the
// fine-BTF method).
func (f *Form) PercentInSmallBlocks(threshold int) float64 {
	n := f.BlockPtr[f.NumBlocks()]
	if n == 0 {
		return 0
	}
	small := 0
	for b := 0; b < f.NumBlocks(); b++ {
		if s := f.BlockPtr[b+1] - f.BlockPtr[b]; s < threshold {
			small += s
		}
	}
	return 100 * float64(small) / float64(n)
}

// Workspace holds the reusable scratch of the BTF front end: the matching
// search's buffers, the values-free pattern transpose the SCC search walks,
// and Tarjan's stacks. Reusing one workspace across Analyze calls removes
// the front end's per-call allocation churn — the serial symbolic-phase
// cost the paper's Algorithm 3 discussion warns about.
type Workspace struct {
	// Match is the matching searches' scratch.
	Match matching.Workspace

	// tptr/tadj hold the pattern of Aᵀ (no values — the SCC search is
	// structural); tnext is the fill cursor.
	tptr, tadj, tnext []int

	// Tarjan scratch.
	index, lowlink, comp, stack []int
	onStack                     []bool
	dfs                         []sccFrame
	sccSizes, newID, next       []int
}

// NewWorkspace returns an empty workspace; buffers grow on first use.
func NewWorkspace() *Workspace { return &Workspace{} }

// Compute finds the BTF of a. The matching permutation is chosen by useMWCM:
// true selects the bottleneck maximum weight matching (Basker's Pm), false
// the plain maximum cardinality matching (pattern only). Returns
// matching.ErrStructurallySingular for structurally singular inputs.
func Compute(a *sparse.CSC, useMWCM bool) (*Form, error) {
	return ComputeWith(a, useMWCM, nil)
}

// ComputeWith is Compute drawing all scratch from ws (nil allocates a
// private workspace). Only the returned Form's slices are freshly
// allocated.
func ComputeWith(a *sparse.CSC, useMWCM bool, ws *Workspace) (*Form, error) {
	if ws == nil {
		ws = NewWorkspace()
	}
	n := a.N
	var match *matching.Result
	var err error
	if useMWCM {
		match, err = matching.BottleneckWith(a, &ws.Match)
	} else {
		match, err = matching.MaxCardinalityPermWith(a, &ws.Match)
	}
	if err != nil {
		return nil, err
	}
	// B = A(match.RowPerm, :) has a zero-free diagonal. Its digraph has an
	// edge u -> v for every nonzero B(u, v); SCCs of that digraph in
	// topological order give the upper BTF. Out-neighbours of u are the
	// pattern of row match.RowPerm[u] of A — column match.RowPerm[u] of the
	// pattern transpose, so one values-free transpose replaces the old
	// Permute+Transpose round trip.
	ws.tptr = sparse.GrowInts(ws.tptr, a.M+1)
	ws.tadj = sparse.GrowInts(ws.tadj, a.Nnz())
	ws.tnext = sparse.GrowInts(ws.tnext, a.M)
	a.TransposePattern(ws.tptr, ws.tadj, ws.tnext)
	sccOrder, blockPtr := tarjanSCC(n, match.RowPerm, ws)

	// sccOrder is a symmetric permutation of B: final ColPerm = sccOrder,
	// final RowPerm composes the matching with sccOrder.
	rowPerm := make([]int, n)
	for k := 0; k < n; k++ {
		rowPerm[k] = match.RowPerm[sccOrder[k]]
	}
	return &Form{RowPerm: rowPerm, ColPerm: sccOrder, BlockPtr: blockPtr}, nil
}

// sccFrame is one DFS frame of the SCC search.
type sccFrame struct{ v, ptr int }

// tarjanSCC runs an iterative Tarjan strongly-connected-components search on
// the digraph whose vertex u has out-adjacency
// tadj[tptr[rowPerm[u]]:tptr[rowPerm[u]+1]] (the matching indirection over
// the pattern transpose). It returns a new-to-old vertex permutation that
// lists SCCs contiguously in topological order of the condensation (all
// edges point from earlier blocks to later blocks), plus the block
// boundaries; both are freshly allocated, all scratch comes from ws.
func tarjanSCC(n int, rowPerm []int, ws *Workspace) (perm []int, blockPtr []int) {
	const unvisited = -1
	ws.index = sparse.GrowInts(ws.index, n)
	ws.lowlink = sparse.GrowInts(ws.lowlink, n)
	ws.comp = sparse.GrowInts(ws.comp, n)
	ws.onStack = sparse.GrowBools(ws.onStack, n)
	index, lowlink, comp, onStack := ws.index, ws.lowlink, ws.comp, ws.onStack
	for i := 0; i < n; i++ {
		index[i] = unvisited
		comp[i] = -1
		onStack[i] = false
	}
	ptr, adj := ws.tptr, ws.tadj
	outs := func(u int) (int, int) {
		p := rowPerm[u]
		return ptr[p], ptr[p+1]
	}
	var (
		counter  int
		sccCount int
	)
	stack := ws.stack[:0] // Tarjan's SCC stack
	sccSizes := ws.sccSizes[:0]
	dfs := ws.dfs[:0]

	for root := 0; root < n; root++ {
		if index[root] != unvisited {
			continue
		}
		p0, _ := outs(root)
		dfs = append(dfs[:0], sccFrame{root, p0})
		index[root] = counter
		lowlink[root] = counter
		counter++
		stack = append(stack, root)
		onStack[root] = true
		for len(dfs) > 0 {
			top := &dfs[len(dfs)-1]
			v := top.v
			_, pend := outs(v)
			if top.ptr < pend {
				w := adj[top.ptr]
				top.ptr++
				if index[w] == unvisited {
					index[w] = counter
					lowlink[w] = counter
					counter++
					stack = append(stack, w)
					onStack[w] = true
					w0, _ := outs(w)
					dfs = append(dfs, sccFrame{w, w0})
				} else if onStack[w] && index[w] < lowlink[v] {
					lowlink[v] = index[w]
				}
				continue
			}
			// v is finished.
			if lowlink[v] == index[v] {
				size := 0
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = sccCount
					size++
					if w == v {
						break
					}
				}
				sccSizes = append(sccSizes, size)
				sccCount++
			}
			dfs = dfs[:len(dfs)-1]
			if len(dfs) > 0 {
				parent := dfs[len(dfs)-1].v
				if lowlink[v] < lowlink[parent] {
					lowlink[parent] = lowlink[v]
				}
			}
		}
	}
	ws.stack, ws.sccSizes, ws.dfs = stack, sccSizes, dfs // keep grown capacity

	// Tarjan emits SCCs in reverse topological order (an SCC is emitted
	// before any SCC that reaches it). Renumber so block 0 comes first in
	// topological order and edges go earlier -> later (upper triangular).
	ws.newID = sparse.GrowInts(ws.newID, sccCount)
	newID := ws.newID
	for c := 0; c < sccCount; c++ {
		newID[c] = sccCount - 1 - c
	}
	blockPtr = make([]int, sccCount+1)
	for c := 0; c < sccCount; c++ {
		blockPtr[newID[c]+1] = sccSizes[c]
	}
	for b := 0; b < sccCount; b++ {
		blockPtr[b+1] += blockPtr[b]
	}
	ws.next = sparse.GrowInts(ws.next, sccCount)
	next := ws.next
	for b := 0; b < sccCount; b++ {
		next[b] = blockPtr[b]
	}
	perm = make([]int, n)
	for v := 0; v < n; v++ {
		b := newID[comp[v]]
		perm[next[b]] = v
		next[b]++
	}
	return perm, blockPtr
}
