package basker

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/matgen"
)

// TestPublicAPIRefactorPartial drives the incremental refresh through the
// public Factorization surface: explicit change sets and the diff-based
// RefactorAuto must both track a transient sequence of localized
// perturbations and keep solves accurate.
func TestPublicAPIRefactorPartial(t *testing.T) {
	base := matgen.XyceSequenceBase(0.15)
	s := New(Options{Threads: 2})
	fp, err := s.Factor(base)
	if err != nil {
		t.Fatal(err)
	}
	fa, err := s.Factor(base)
	if err != nil {
		t.Fatal(err)
	}
	cur := base
	for step := 1; step <= 4; step++ {
		cols := matgen.ChangeSet(base.N, 0.02, int64(step), step%2 == 0)
		next := matgen.PerturbColumns(cur, cols, step, 17)
		if err := fp.RefactorPartial(next, cols); err != nil {
			t.Fatalf("partial step %d: %v", step, err)
		}
		if err := fa.RefactorAuto(next); err != nil {
			t.Fatalf("auto step %d: %v", step, err)
		}
		for _, f := range []*Factorization{fp, fa} {
			x := make([]float64, next.N)
			for i := range x {
				x[i] = 1 + float64(i%5)
			}
			b := make([]float64, next.N)
			next.MulVec(b, x)
			f.Solve(b)
			for i := range x {
				if math.Abs(b[i]-x[i]) > 1e-6 {
					t.Fatalf("step %d: x[%d] = %v, want %v", step, i, b[i], x[i])
				}
			}
		}
		cur = next
	}
}

// TestAffectedSolutionBlocks verifies the dependency-closure contract: after
// an incremental refresh, solution components of blocks the closure reports
// clean are bit-for-bit identical to the pre-change solution.
func TestAffectedSolutionBlocks(t *testing.T) {
	a := matgen.Circuit(matgen.CircuitParams{N: 800, BTFPct: 90, Blocks: 60, Core: matgen.CoreLadder, ExtraDensity: 0.3, Seed: 7})
	f, err := New(Options{Threads: 1}).Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	if f.NumBlocks() < 4 {
		t.Skip("matrix collapsed into too few blocks for a meaningful closure test")
	}
	rhs := make([]float64, a.N)
	for i := range rhs {
		rhs[i] = 1 + float64(i%7)
	}
	before := append([]float64(nil), rhs...)
	f.Solve(before)

	cols := matgen.ChangeSet(a.N, 0.01, 3, true)
	affected := f.AffectedSolutionBlocks(cols)
	if len(affected) != f.NumBlocks() {
		t.Fatalf("affected has %d entries, want %d", len(affected), f.NumBlocks())
	}
	anyAffected, anyClean := false, false
	for _, d := range affected {
		if d {
			anyAffected = true
		} else {
			anyClean = true
		}
	}
	if !anyAffected {
		t.Fatal("change set affects no block")
	}
	if !anyClean {
		t.Skip("change set reaches every block; nothing to verify")
	}
	for _, c := range cols {
		if !affected[f.BlockOfColumn(c)] {
			t.Fatalf("changed column %d's own block not reported affected", c)
		}
	}

	next := matgen.PerturbColumns(a, cols, 1, 23)
	if err := f.RefactorPartial(next, cols); err != nil {
		t.Fatal(err)
	}
	after := append([]float64(nil), rhs...)
	f.Solve(after)
	// Solution components of clean blocks must be bitwise unchanged.
	for j := 0; j < a.N; j++ {
		if !affected[f.BlockOfColumn(j)] && after[j] != before[j] {
			t.Fatalf("solution component %d (clean block %d) changed: %v -> %v",
				j, f.BlockOfColumn(j), after[j], before[j])
		}
	}
}

// TestRefactorAutoOffDiagonalOnly changes only coarse off-diagonal entries
// (couplings between BTF blocks): RefactorAuto must rework no block, yet
// carry the new couplings into the solve, which must then be bitwise equal
// to a fresh factorization of the new matrix under the same analysis.
func TestRefactorAutoOffDiagonalOnly(t *testing.T) {
	a := matgen.XyceSequenceBase(1)
	for _, threads := range []int{1, 2, 4} {
		f, err := New(Options{Threads: threads}).Factor(a)
		if err != nil {
			t.Fatal(err)
		}
		sym := f.num.Sym
		rowPos := make([]int, sym.N) // original row -> permuted row
		for r, i := range sym.RowPerm {
			rowPos[i] = r
		}
		a2 := a.Clone()
		changed := 0
		for k, j := range sym.ColPerm {
			for p := a2.Colptr[j]; p < a2.Colptr[j+1]; p++ {
				if sym.BlockOf(rowPos[a2.Rowidx[p]]) != sym.BlockOf(k) {
					a2.Values[p] *= 1.5
					changed++
				}
			}
		}
		if changed == 0 {
			t.Fatalf("threads %d: matrix has no coarse off-diagonal entries", threads)
		}
		if err := f.RefactorAuto(a2); err != nil {
			t.Fatal(err)
		}
		if st := f.Stats(a2); st.DirtyBlocks != 0 {
			t.Fatalf("threads %d: off-diagonal-only change reworked %d blocks, want 0", threads, st.DirtyBlocks)
		}
		num, err := core.Factor(a2, sym)
		if err != nil {
			t.Fatal(err)
		}
		fresh := newFactorization(num)
		b := make([]float64, a2.N)
		for i := range b {
			b[i] = 1 + float64(i%7)
		}
		got, want := append([]float64(nil), b...), append([]float64(nil), b...)
		if err := f.Solve(got); err != nil {
			t.Fatal(err)
		}
		if err := fresh.Solve(want); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("threads %d: x[%d] = %v, fresh factorization gives %v", threads, i, got[i], want[i])
			}
		}
	}
}
