// Package trisolve is the concurrent solve subsystem: the triangular
// solve phase of Basker, rebuilt for the workload the factorization
// engine was designed to feed. A transient circuit simulation performs
// one Factor and then thousands of Refactor/Solve calls, frequently for
// many right-hand sides and many concurrent scenarios, so this package
// provides
//
//   - reentrant solves: every per-call scratch buffer (the permuted RHS,
//     the diagonal-block pivot scratch formerly allocated inside ndSolve
//     and gp.Solve, refinement residuals, multi-RHS panels) lives in a
//     sync.Pool-backed Workspace, so any number of goroutines can solve
//     against one factorization with zero steady-state allocation;
//   - blocked multi-RHS solves: SolveMany sweeps the coarse BTF
//     back-substitution once per panel of right-hand sides instead of
//     once per vector, touching each diagonal block's factors once per
//     panel (cache-blocking the solve the way the paper's 2D layout
//     cache-blocks the factorization);
//   - scheduled parallelism: panels are distributed over worker
//     goroutines, and single-RHS solves on matrices with many coarse
//     blocks run a dependency-scheduled parallel block sweep that reuses
//     the point-to-point EpochSignals fabric of the numeric engine — block i
//     waits only on the exact later blocks that feed it.
//
// All entry points perform bit-for-bit the same floating-point operation
// sequence per right-hand side as a serial core.Numeric.Solve, so batched,
// parallel and serial paths are interchangeable and golden-testable.
package trisolve

import (
	"context"
	"fmt"
	"math"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/sparse"
)

const (
	// maxPanel caps the column count of one blocked sweep so the panel
	// buffer stays cache-friendly and bounded (n×32 floats).
	maxPanel = 32
	// blockParallelMinDim is the default minimum average block dimension
	// (rows per coarse block) before a single-RHS solve uses the
	// dependency-scheduled parallel sweep: with thousands of tiny blocks,
	// per-block synchronization costs more than the block solves.
	blockParallelMinDim = 256
)

// Options configures a Solver.
type Options struct {
	// Workers is the number of goroutines used for panel and block
	// parallelism. Values below 1 mean 1 (fully serial).
	Workers int
	// BlockParallelMin overrides the single-RHS parallel-sweep gate: a
	// positive value engages the parallel sweep whenever the matrix has at
	// least that many coarse blocks (regardless of block size), a negative
	// value disables it, and 0 selects the default heuristic (at least
	// 2×Workers blocks averaging blockParallelMinDim rows).
	BlockParallelMin int
}

// Solver drives reentrant, batched and parallel solves against one
// core.Numeric. It is safe for concurrent use by multiple goroutines as
// long as no Refactor runs concurrently with solves; Refactor between
// solve batches is fine (the cached block-dependency structure depends
// only on the sparsity pattern, which Refactor preserves).
type Solver struct {
	num      *core.Numeric
	workers  int
	blockPar bool
	pool     *wsPool

	// Block-dependency structure for the parallel sweep, built lazily once
	// (the pattern is immutable across Refactor). colPos is the inverse
	// column permutation SolutionClosure maps changed columns through.
	depOnce sync.Once
	feeds   [][]feed
	deps    [][]int
	colPos  []int
}

// feed is one off-block coupling entry: y[row] -= Perm.Values[p] · y[col].
// Positions are stored as indices into the permuted matrix so the values
// stay current across Refactor, which rebuilds Perm with an identical
// layout.
type feed struct {
	row, col, p int32
}

// New returns a Solver over num.
func New(num *core.Numeric, opt Options) *Solver {
	w := opt.Workers
	if w < 1 {
		w = 1
	}
	sym := num.Sym
	nb := sym.NumBlocks()
	var blockPar bool
	switch {
	case w <= 1 || opt.BlockParallelMin < 0:
		blockPar = false
	case opt.BlockParallelMin > 0:
		blockPar = nb >= opt.BlockParallelMin && nb >= 2
	default:
		blockPar = nb >= 2*w && sym.N/nb >= blockParallelMinDim
	}
	return &Solver{
		num:      num,
		workers:  w,
		blockPar: blockPar,
		pool:     newWSPool(sym),
	}
}

// panicErr converts a recovered solve-phase panic into the numeric
// engine's internal-panic error, carrying the panic value and stack.
func panicErr(r any) error {
	if e, ok := r.(error); ok {
		// Keep error-typed panic values in the chain so callers can match
		// them with errors.Is through the ErrInternalPanic wrapper.
		return fmt.Errorf("%w: %w\n%s", core.ErrInternalPanic, e, debug.Stack())
	}
	return fmt.Errorf("%w: %v\n%s", core.ErrInternalPanic, r, debug.Stack())
}

// Solve solves A·x = b in place. Reentrant and allocation-free in steady
// state on the serial path. On a non-nil error (a recovered panic in a
// sweep) b is unspecified; the factorization itself is unharmed, solves
// are read-only against it.
func (s *Solver) Solve(b []float64) error {
	return s.SolveCtx(context.Background(), b)
}

// SolveCtx is Solve with cooperative cancellation: a fired ctx aborts the
// dependency-scheduled parallel sweep at the next block boundary and
// returns ErrCanceled or ErrDeadlineExceeded; b is then unspecified (the
// factorization is unharmed — solves only read it). A Done-capable ctx or
// a positive Options.StallTimeout on the factorization also arms the sweep
// watchdog, which aborts a no-progress sweep with ErrStalled. The serial
// path runs on the caller's goroutine and only honours a ctx that is
// already expired at entry.
func (s *Solver) SolveCtx(ctx context.Context, b []float64) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = panicErr(r)
		}
	}()
	if ctx != nil && ctx.Err() != nil {
		return core.CancelCause(ctx)
	}
	if s.blockPar {
		return s.solveBlockParallel(ctx, b)
	}
	ws := s.pool.get()
	defer s.pool.put(ws)
	s.num.SolveInto(b, ws.y, ws.scratch)
	return nil
}

// SolveMany solves A·xᵢ = bᵢ in place for every right-hand side. The batch
// is cut into panels of at most maxPanel columns; each panel runs one
// blocked BTF sweep (per diagonal block, all panel columns are solved
// before moving on), and panels are distributed over the worker
// goroutines. Per right-hand side the operation sequence is identical to
// Solve.
func (s *Solver) SolveMany(bs [][]float64) error {
	return s.SolveManyCtx(context.Background(), bs)
}

// SolveManyCtx is SolveMany with cooperative cancellation: workers stop
// picking up panels once ctx fires (or the stall watchdog trips) and the
// call returns the typed error with the batch partially solved. The sweep
// always joins fully before returning — workers write the caller-owned
// right-hand sides — so cancellation accelerates the unwind rather than
// abandoning stragglers.
func (s *Solver) SolveManyCtx(ctx context.Context, bs [][]float64) (err error) {
	k := len(bs)
	if k == 0 {
		return nil
	}
	defer func() {
		if r := recover(); r != nil {
			err = panicErr(r)
		}
	}()
	if ctx != nil && ctx.Err() != nil {
		return core.CancelCause(ctx)
	}
	// Panel width: fill maxPanel columns when serial, but never leave a
	// worker idle — with few right-hand sides and many workers, narrower
	// panels spread the batch across the goroutines.
	width := maxPanel
	if s.workers > 1 {
		if perW := (k + s.workers - 1) / s.workers; perW < width {
			width = perW
		}
	}
	nchunks := (k + width - 1) / width
	nw := s.workers
	if nw > nchunks {
		nw = nchunks
	}
	if nw <= 1 {
		for lo := 0; lo < k; lo += width {
			if ctx != nil && ctx.Err() != nil {
				return core.CancelCause(ctx)
			}
			s.solvePanel(bs[lo:min(lo+width, k)])
		}
		return nil
	}
	return s.solveManyParallel(ctx, bs, width, nchunks, nw)
}

// solveManyParallel distributes panel chunks over nw worker goroutines
// through a shared atomic cursor. Kept out of SolveMany so the serial path
// stays allocation-free (the worker closures would otherwise force their
// captures onto the heap on every call). A panicking worker records the
// first error and stops; the cursor lets the surviving workers drain the
// remaining panels, so the WaitGroup join always quiesces.
func (s *Solver) solveManyParallel(ctx context.Context, bs [][]float64, width, nchunks, nw int) (err error) {
	k := len(bs)
	inject := s.num.Sym.Opts.Inject
	// Armed batches borrow a pooled workspace purely for its cancellation
	// control; the unarmed fast path allocates and arms nothing.
	var ctl *core.SweepControl
	var mon *core.SweepMonitor
	if stall := s.num.Sym.Opts.StallTimeout; core.MonitorArmed(ctx, stall) {
		cws := s.pool.get()
		defer s.pool.put(cws)
		ctl = &cws.ctl
		ctl.BeginSweep(true)
		mon = core.StartSweepMonitor(core.MonitorSpec{
			Ctx: ctx, Stall: stall, Sweep: "solve", Ctl: ctl,
		})
		defer func() {
			if merr := mon.Stop(); merr != nil && err == nil {
				err = merr
			}
		}()
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = panicErr(r)
					}
					mu.Unlock()
				}
			}()
			inject.WorkerPanic(faultinject.SweepSolve, w)
			for {
				if ctl != nil && ctl.Canceled() {
					return
				}
				c := int(next.Add(1)) - 1
				if c >= nchunks {
					return
				}
				lo := c * width
				s.solvePanel(bs[lo:min(lo+width, k)])
				if ctl != nil {
					ctl.Step()
				}
			}
		}(w)
	}
	wg.Wait()
	return firstErr
}

// SolveMatrix solves the column-major n×nrhs system A·X = B in place:
// x holds nrhs right-hand sides of length n back to back.
func (s *Solver) SolveMatrix(x []float64, nrhs int) error {
	n := s.num.Sym.N
	cols := make([][]float64, nrhs)
	for c := range cols {
		cols[c] = x[c*n : (c+1)*n]
	}
	return s.SolveMany(cols)
}

// solvePanel runs the blocked BTF back-substitution over one panel of
// right-hand sides with a single pooled workspace: permute all columns in,
// run the core panel sweep (each diagonal block's factors and each
// off-block column traversed once per panel), and permute all columns out.
func (s *Solver) solvePanel(cols [][]float64) {
	ws := s.pool.get()
	defer s.pool.put(ws)
	num := s.num
	sym := num.Sym
	n := sym.N
	k := len(cols)
	buf := ws.panelBuf(n, k)
	ys := ws.views[:k]
	for c, b := range cols {
		y := buf[c*n : (c+1)*n]
		for i := 0; i < n; i++ {
			y[i] = b[sym.RowPerm[i]]
		}
		ys[c] = y
	}
	num.SolvePanel(ys, ws.pw)
	for c, b := range cols {
		y := ys[c]
		for i := 0; i < n; i++ {
			b[sym.ColPerm[i]] = y[i]
		}
	}
}

// RefineResult reports what an iterative-refinement solve achieved.
type RefineResult struct {
	// Iterations is the number of correction steps applied (the direct
	// solve is step zero and is not counted).
	Iterations int
	// BackwardError is the final Oettli–Prager componentwise relative
	// backward error ω = maxᵢ |b−Ax|ᵢ / (|A||x|+|b|)ᵢ: the size of the
	// smallest componentwise perturbation of A and b for which x is an
	// exact solution. At or below RefineTol, x is as good as the working
	// precision allows.
	BackwardError float64
	// Residual is the final ∞-norm residual ‖b−Ax‖∞ / ‖b‖∞ (the normwise
	// diagnostic the previous refinement API reported).
	Residual float64
	// Converged reports that BackwardError reached RefineTol.
	Converged bool
	// Stagnated reports that refinement stopped early because a step failed
	// to at least halve the backward error — the classic symptom of a
	// factorization too inaccurate for refinement to help (severe
	// ill-conditioning), at which point further solves only burn time.
	Stagnated bool
	// Canceled reports that a SolveRefinedCtx context fired between
	// refinement iterations: b holds the best iterate computed so far and
	// the result fields describe it, alongside the returned typed error.
	Canceled bool
}

// RefineTol is the componentwise backward-error target of SolveRefined:
// a small multiple of the double-precision unit roundoff, the level LAPACK
// refinement drives ω to.
const RefineTol = 4 * 2.220446049250313e-16

// SolveRefined solves A·x = b with convergent iterative refinement against
// the matrix a that was factored (or refactored): after the direct solve,
// correction steps x += A⁻¹(b − A·x) run until the Oettli–Prager
// componentwise backward error reaches RefineTol, a step fails to make
// progress (stagnation), or maxIters corrections have been applied. b is
// overwritten with x. All scratch comes from the workspace pool; the
// backward-error pass shares the residual's single sweep over a.
func (s *Solver) SolveRefined(a *sparse.CSC, b []float64, maxIters int) (RefineResult, error) {
	return s.SolveRefinedCtx(context.Background(), a, b, maxIters)
}

// SolveRefinedCtx is SolveRefined with cooperative cancellation between
// refinement iterations: when ctx fires, the method stops refining, leaves
// the best iterate computed so far in b, and returns the result describing
// it with Canceled set alongside ErrCanceled or ErrDeadlineExceeded.
func (s *Solver) SolveRefinedCtx(ctx context.Context, a *sparse.CSC, b []float64, maxIters int) (res RefineResult, err error) {
	ws := s.pool.get()
	defer s.pool.put(ws)
	defer func() {
		if r := recover(); r != nil {
			err = panicErr(r)
		}
	}()
	if ctx != nil && ctx.Err() != nil {
		res.Canceled = true
		return res, core.CancelCause(ctx)
	}
	n := a.N
	r, rhs, den := ws.refine(n)
	copy(rhs, b)
	s.num.SolveInto(b, ws.y, ws.scratch)
	scale := 0.0
	for _, v := range rhs {
		if v := math.Abs(v); v > scale {
			scale = v
		}
	}
	if scale == 0 {
		scale = 1
	}
	prev := math.Inf(1)
	for it := 0; ; it++ {
		omega, resid := backwardError(a, b, rhs, r, den)
		res.Iterations = it
		res.BackwardError = omega
		res.Residual = resid / scale
		if omega <= RefineTol {
			res.Converged = true
			return res, nil
		}
		if it >= maxIters {
			return res, nil
		}
		if ctx != nil && ctx.Err() != nil {
			// b already holds the iterate the result fields describe.
			res.Canceled = true
			return res, core.CancelCause(ctx)
		}
		if omega > 0.5*prev {
			// The last correction did not at least halve ω: stagnation.
			res.Stagnated = true
			return res, nil
		}
		prev = omega
		s.num.SolveInto(r, ws.y, ws.scratch)
		for i := range b {
			b[i] += r[i]
		}
	}
}

// backwardError computes, in one pass over a's columns, the residual
// r = rhs − A·x and the Oettli–Prager denominator den = |A|·|x| + |rhs|,
// returning the componentwise backward error ω = maxᵢ |r|ᵢ/denᵢ (rows with
// a zero denominator and a nonzero residual yield +Inf) and the plain
// residual ∞-norm.
func backwardError(a *sparse.CSC, x, rhs, r, den []float64) (omega, resid float64) {
	for i := range r {
		r[i] = rhs[i]
		den[i] = math.Abs(rhs[i])
	}
	for j := 0; j < a.N; j++ {
		xj := x[j]
		if xj == 0 {
			continue
		}
		axj := math.Abs(xj)
		for p := a.Colptr[j]; p < a.Colptr[j+1]; p++ {
			i := a.Rowidx[p]
			v := a.Values[p]
			r[i] -= v * xj
			den[i] += math.Abs(v) * axj
		}
	}
	for i := range r {
		ri := math.Abs(r[i])
		if ri > resid {
			resid = ri
		}
		switch {
		case den[i] > 0:
			if w := ri / den[i]; w > omega {
				omega = w
			}
		case ri != 0:
			omega = math.Inf(1)
		}
	}
	return omega, resid
}
