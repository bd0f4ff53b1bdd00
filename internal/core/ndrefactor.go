package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/internal/sparse"
	"repro/internal/trace"
)

// ndRefactor is the reusable state of a fine-ND block's in-place
// refactorization sweep, built once on the first refresh: flags is the
// resettable EpochSignals fabric with one slot per (i, j) kernel plus, in
// row nb, one ready slot per column node (see arrive), so repeated
// sweeps allocate no synchronization state.
//
// Everything else the sweep needs is shared with the fresh-factorization
// path on the ndNum itself — the input-block entry maps (aSrc) and the
// per-worker workspaces (fws/facc) and reduction gather buffers
// (flows/fups); the two sweeps are mutually exclusive by contract, so one
// worker-indexed pool serves both.
type ndRefactor struct {
	flags *epochBlockFlags

	// lastContended snapshots the flag fabric's cumulative contended-wait
	// counter so each sweep can report its own SyncWaits delta; lastWaitNs
	// does the same for the blocked-wait nanoseconds.
	lastContended int64
	lastWaitNs    int64

	// run[t] is region worker t's prebuilt goroutine body and wg their
	// join, so launching a sweep allocates nothing.
	run []func()
	wg  sync.WaitGroup
	// pending[j] counts what column node j's decision still waits for: its
	// own gather and the decision of each child (arrivals[j] per sweep).
	pending  []atomic.Int32
	arrivals []int32

	// The running sweep's inputs, written by refactorSweep before any
	// worker launches: in is what the workers gather from (zero when the
	// change-set path scattered the values already), st the dirty state
	// (nil for a full refresh) and poison the KernelNaN fault.
	in     ndInput
	st     *ndIncState
	poison bool
}

// ensureRefactorState builds the in-place refactor state for this ND block
// (or rebinds its fabric to the owner's cancel source).
func (num *ndNum) ensureRefactorState() {
	if num.re == nil {
		nb := num.sym.nb
		re := &ndRefactor{
			flags:    &epochBlockFlags{n: nb, EpochSignals: NewEpochSignals((nb + 1) * nb)},
			run:      make([]func(), num.sym.p),
			pending:  make([]atomic.Int32, nb),
			arrivals: make([]int32, nb),
		}
		for j, par := range num.sym.tree.Parent {
			re.arrivals[j]++
			if par >= 0 {
				re.arrivals[par]++
			}
		}
		for t := range re.run {
			re.run[t] = func() {
				// Panic isolation: record the panic and fail the flag fabric
				// so cooperating siblings abort their waits; the WaitGroup
				// is the join, so nothing else needs releasing.
				defer re.wg.Done()
				defer func() {
					if r := recover(); r != nil {
						num.failRefactor(panicError(r))
					}
				}()
				num.refactorRegion(t)
			}
		}
		num.re = re
	}
	num.re.flags.Bind(num.opts.ctl)
}

// refactorSweep refreshes every numeric value of the 2D factorization in
// place, reusing pivot sequences and block patterns; in steady state it
// performs no allocation. in, when non-nil, is what the region workers
// gather the input hierarchy from, each the column nodes it owns (nil when
// the values are already in place). st, when non-nil, carries the dirty
// state: a gathering sweep diffs into it, and each column node's kernels
// are decided as soon as the node and the columns below it are in (see
// arrive). Clean kernels keep their factored values and their completion
// flags are pre-armed for the epoch, so dirty kernels still synchronize
// point-to-point exactly as the full sweep does, and leaf kernels, which
// have no reduction terms, restrict their refresh to the dirty column
// suffix. poison plants the KernelNaN fault in the inputs and reruns every
// kernel. It reports whether any kernel ran; on error (a reused pivot
// drifted to zero) the values are left partially refreshed and the caller
// falls back to a fresh factorND.
func (num *ndNum) refactorSweep(in *ndInput, st *ndIncState, poison bool) (bool, error) {
	num.ensureRefactorState()
	re := num.re
	s := num.sym
	re.flags.Reset()
	re.in = ndInput{}
	if in != nil {
		re.in = *in
	}
	num.phase = trace.PhaseRefactor
	if st != nil {
		num.phase = trace.PhasePartial
	}
	if poison {
		st = nil
	}
	re.st, re.poison = st, poison
	for j, n := range re.arrivals {
		re.pending[j].Store(n)
	}
	num.firstErr = nil
	for t := range num.phaseDur {
		num.phaseDur[t] = num.phaseDur[t][:0]
	}
	num.rec = num.opts.Trace
	num.resetWaitAccounting()
	if s.p == 1 {
		num.refactorRegion(0)
	} else {
		for t := 0; t < s.p; t++ {
			re.wg.Add(1)
			go re.run[t]()
		}
		re.wg.Wait()
	}
	re.in = ndInput{}
	total := re.flags.Contended()
	num.SyncWaits = total - re.lastContended
	re.lastContended = total
	waitTotal := re.flags.WaitNanos()
	num.SyncWaitNs = waitTotal - re.lastWaitNs
	re.lastWaitNs = waitTotal
	if num.firstErr == nil {
		if ctl := num.opts.ctl; ctl != nil && ctl.Canceled() {
			num.firstErr = errSweepAborted
		}
	}
	ran := st == nil || slices.Contains(st.chg, true)
	return ran, num.firstErr
}

// refactorRegion is region worker t's share of an in-place sweep: gather
// (and, with a dirty state, diff) the input blocks of the column nodes it
// owns, then run its static schedule. Owning whole column nodes keeps
// every dirty mark of a node with one writer.
func (num *ndNum) refactorRegion(t int) {
	num.opts.Inject.WorkerPanic(faultinject.SweepND, t)
	re, s := num.re, num.sym
	rec := num.rec
	start := rec.Now()
	for j := 0; j < s.nb; j++ {
		if s.owner[j] != t {
			continue
		}
		if re.in.g != nil {
			num.gatherNode(j, &re.in, re.st)
		}
		if re.poison && j == s.tree.Leaves[0] {
			// The KernelNaN fault: a NaN lands in the first leaf's input.
			if b := num.a[j][j]; b.Nnz() > 0 {
				b.Values[0] = nan()
			}
		}
		num.arrive(j)
	}
	if rec != nil && re.in.g != nil {
		rec.Record(trace.Event{Start: start, End: rec.Now(), Worker: trace.NDWorker(num.blk, t),
			Block: int32(num.blk), Kind: trace.KindGather, Phase: num.phase})
	}
	num.refactorWorker(t, re.st)
}

// arrive records that column node j's inputs are in place (or, walking up,
// that a child column is decided). The arrival that completes a column —
// whichever worker makes it — decides which of the column's kernels rerun
// (on a selective sweep), pre-arms the flags of the clean ones, opens the
// column's ready slot (row nb of the flag fabric) and arrives at the
// parent. Decisions thus climb the tree as soon as their inputs exist,
// with no barrier: every worker starts its leaf right after its own
// gather, and no worker ever waits on a decision for longer than the
// gathers below it take.
func (num *ndNum) arrive(j int) {
	re, s := num.re, num.sym
	for j >= 0 && re.pending[j].Add(-1) == 0 {
		if st := re.st; st != nil {
			num.decideColumn(st, j)
			for i := 0; i < s.nb; i++ {
				if !st.chg[i*s.nb+j] {
					re.flags.set(i, j)
				}
			}
		}
		re.flags.set(s.nb, j)
		j = s.tree.Parent[j]
	}
}

// openColumn waits until column node j's kernels may run: their inputs
// are gathered and, on a selective sweep, decided (see arrive). False
// means the sweep aborted.
func (num *ndNum) openColumn(j, t int) bool {
	return num.waitOn(num.re.flags, num.sym.nb, j, t)
}

func (num *ndNum) failRefactor(err error) {
	num.errMu.Lock()
	if num.firstErr == nil {
		num.firstErr = err
	}
	num.errMu.Unlock()
	num.re.flags.fail()
}

// refactorWorker runs thread t's static schedule of the in-place sweep —
// the same dependency structure as worker, with every kernel replaced by
// its fixed-pattern value refresh and every synchronization point on the
// resettable epoch flags (refactorization always uses point-to-point
// synchronization; the barrier ablation concerns first factorization).
// Compute time lands in phaseDur exactly like the factor path, so the
// simulated-makespan model covers refactorization too. st, when non-nil,
// selects the kernels to rerun (nil reruns everything); each column's
// kernels run only once its ready slot is open, skipped kernels keep
// their values and rely on the flags pre-armed when their column was
// decided (see arrive), and
// the phase-duration appends stay unconditional so the makespan model's
// phase alignment across threads survives partial sweeps.
//
// Per-column granularity at the leaves: leaf kernels consume no reduction,
// so when the change set first touches node v at column st.first[v], the
// leaf diagonal refactors from that column (factor column k depends only
// on input columns up to k and earlier factor columns), leaf lower blocks
// refresh from it (output column c reads input column c, factor column c
// and earlier output columns, none of which changed before the first dirty
// column), and leaf upper blocks refresh from the target column's first
// dirty column provided the leaf factor itself did not change this sweep
// (each upper column reads the whole leaf L).
func (num *ndNum) refactorWorker(t int, st *ndIncState) {
	s := num.sym
	re := num.re
	leaf := s.tree.Leaves[t]
	ws, _, acc := num.workerScratch(t)
	live := func(i, j int) bool { return st == nil || st.chg[i*s.nb+j] }
	firstOf := func(j int) int {
		if st == nil {
			return 0
		}
		return st.first[j]
	}
	rec := num.rec
	var waitMark int64
	if rec != nil {
		defer num.flushWait(t, &waitMark)
	}
	// record emits one trace event for a just-timed kernel span, carrying
	// the blocked wait accumulated since the previous event and the kernel
	// kind the span ran on (dense refresh, supernodal panel, or sparse).
	record := func(d time.Duration, kind trace.Kind) {
		if rec == nil {
			return
		}
		end := rec.Now()
		rec.Record(trace.Event{
			Start:  end - d.Nanoseconds(),
			End:    end,
			Wait:   num.fwait[t] - waitMark,
			Worker: trace.NDWorker(num.blk, t),
			Block:  int32(num.blk),
			Kind:   kind,
			Phase:  num.phase,
		})
		waitMark = num.fwait[t]
	}
	var busy float64
	if !num.openColumn(leaf, t) {
		return
	}

	// ---- treelevel -1: refresh the leaf diagonal and its lower blocks.
	// Kernel dispatch must mirror the fresh path exactly (dense-tagged →
	// dense refresh, supernodal → panel refresh, else sparse): both sides
	// of the choice depend only on Analyze-time state, so partial and full
	// sweeps route every kernel identically and stay bitwise-comparable.
	t0 := time.Now()
	var err error
	kind := trace.KindNDKernel
	if live(leaf, leaf) {
		switch {
		case num.useDense(leaf, leaf):
			kind = trace.KindDenseRefresh
			num.denseHits.Add(1)
			if st == nil {
				err = num.diag[leaf].RefactorDense(num.a[leaf][leaf], num.denseWS(t))
			} else {
				b0, b1 := s.blockRange(leaf)
				err = num.diag[leaf].RefactorDenseSelective(num.a[leaf][leaf], num.denseWS(t),
					st.colStamp[b0:b1], st.epoch, st.rerun[b0:b1])
			}
		case num.diag[leaf].Snodes != nil:
			kind = trace.KindSnodeKernel
			num.snHits.Add(1)
			if st == nil {
				err = num.diag[leaf].RefactorSupernodal(num.a[leaf][leaf], ws, num.denseWS(t))
			} else {
				b0, b1 := s.blockRange(leaf)
				err = num.diag[leaf].RefactorSupernodalSelective(num.a[leaf][leaf], ws, num.denseWS(t),
					st.colStamp[b0:b1], st.epoch, st.rerun[b0:b1])
			}
		default:
			if st == nil {
				err = num.diag[leaf].Refactor(num.a[leaf][leaf], ws)
			} else {
				// Selective per-column refresh: only the closure of the leaf's
				// dirty columns under the factor's own column dependencies
				// reruns (a leaf diagonal consumes no reduction, so the input
				// stamps tell the whole story).
				b0, b1 := s.blockRange(leaf)
				err = num.diag[leaf].RefactorSelective(num.a[leaf][leaf], ws,
					st.colStamp[b0:b1], st.epoch, st.rerun[b0:b1])
			}
		}
		if err == nil {
			re.flags.set(leaf, leaf)
		}
	}
	if err == nil {
		for _, i := range s.ancestors[leaf] {
			if live(i, leaf) {
				if num.useDense(i, leaf) && num.useDense(leaf, leaf) {
					num.denseHits.Add(1)
					num.diag[leaf].DenseLowerRefactorFrom(num.lower[i][leaf], num.a[i][leaf], firstOf(leaf))
				} else {
					num.diag[leaf].RefactorLowerBlockFrom(num.lower[i][leaf], num.a[i][leaf], acc, firstOf(leaf))
				}
				re.flags.set(i, leaf)
			}
		}
	}
	d := time.Since(t0)
	busy += d.Seconds()
	record(d, kind)
	num.phaseDur[t] = append(num.phaseDur[t], busy)
	busy = 0
	if err != nil {
		num.failRefactor(fmt.Errorf("core: nd refactor diag block %d: %w", leaf, err))
		return
	}
	if re.flags.Aborted() {
		return
	}

	// ---- separator columns, bottom-up (the paper's slevel loop).
	for slevel := 1; slevel <= s.maxH; slevel++ {
		j := ancestorAtHeight(s, leaf, slevel)
		if !num.openColumn(j, t) {
			return
		}
		// Step A: my leaf's upper block U_{leaf,j}.
		if live(leaf, j) {
			k0 := 0
			if st != nil && !st.chg[leaf*s.nb+leaf] {
				k0 = st.first[j]
			}
			t0 = time.Now()
			kind = trace.KindNDKernel
			if num.useDense(leaf, j) && num.useDense(leaf, leaf) {
				kind = trace.KindDenseRefresh
				num.denseHits.Add(1)
				num.diag[leaf].DenseUpperRefactorFrom(num.upper[leaf][j], num.a[leaf][j], k0)
			} else {
				num.diag[leaf].RefactorUpperBlockFrom(num.upper[leaf][j], num.a[leaf][j], ws, k0)
			}
			re.flags.set(leaf, j)
			d = time.Since(t0)
			busy += d.Seconds()
			record(d, kind)
		}
		num.phaseDur[t] = append(num.phaseDur[t], busy)
		busy = 0
		if re.flags.Aborted() {
			return
		}
		// Step B: internal path nodes I owned by this thread.
		for h := 1; h < slevel; h++ {
			k := ancestorAtHeight(s, leaf, h)
			if s.owner[k] == t && live(k, j) {
				lows, ups, ok := num.gatherReductionOn(re.flags, k, j, t)
				if !ok {
					num.phaseDur[t] = append(num.phaseDur[t], busy)
					return
				}
				t0 = time.Now()
				kind = trace.KindNDKernel
				if num.useDense(k, j) {
					kind = trace.KindDenseRefresh
				}
				b := num.a[k][j]
				if len(lows) > 0 {
					if num.useDense(k, j) {
						// num.red[k][j] is fully dense (built by the fresh
						// sweep's reduceBlockDense), so FillDense recycles it
						// in place: same accumulation, zero allocation.
						num.denseHits.Add(1)
						reduceBlockDense(num.a[k][j], lows, ups, num.red[k][j], num.denseWS(t))
					} else {
						reduceBlockInto(num.red[k][j], num.a[k][j], lows, ups, acc)
					}
					b = num.red[k][j]
				}
				if num.useDense(k, j) && num.useDense(k, k) {
					num.denseHits.Add(1)
					num.diag[k].DenseUpperRefactorFrom(num.upper[k][j], b, 0)
				} else {
					num.diag[k].RefactorUpperBlock(num.upper[k][j], b, ws)
				}
				re.flags.set(k, j)
				d = time.Since(t0)
				busy += d.Seconds()
				record(d, kind)
			}
			num.phaseDur[t] = append(num.phaseDur[t], busy)
			busy = 0
			if re.flags.Aborted() {
				return
			}
		}
		// Step C: the diagonal LU_jj by the owner of j.
		if s.owner[j] == t && live(j, j) {
			lows, ups, ok := num.gatherReductionOn(re.flags, j, j, t)
			if !ok {
				num.phaseDur[t] = append(num.phaseDur[t], busy)
				return
			}
			t0 = time.Now()
			kind = trace.KindNDKernel
			b := num.a[j][j]
			if len(lows) > 0 {
				if num.useDense(j, j) {
					num.denseHits.Add(1)
					reduceBlockDense(num.a[j][j], lows, ups, num.red[j][j], num.denseWS(t))
				} else {
					reduceBlockInto(num.red[j][j], num.a[j][j], lows, ups, acc)
				}
				b = num.red[j][j]
			}
			switch {
			case num.useDense(j, j):
				// The reduce above committed its panel into red before the
				// dense refactor takes its own, so the one-live-panel rule
				// of the pooled workspace holds.
				kind = trace.KindDenseRefresh
				num.denseHits.Add(1)
				err = num.diag[j].RefactorDense(b, num.denseWS(t))
			case num.diag[j].Snodes != nil:
				kind = trace.KindSnodeKernel
				num.snHits.Add(1)
				err = num.diag[j].RefactorSupernodal(b, ws, num.denseWS(t))
			default:
				err = num.diag[j].Refactor(b, ws)
			}
			if err == nil {
				re.flags.set(j, j)
			}
			d = time.Since(t0)
			busy += d.Seconds()
			record(d, kind)
			if err != nil {
				num.phaseDur[t] = append(num.phaseDur[t], busy)
				num.failRefactor(fmt.Errorf("core: nd refactor diag block %d: %w", j, err))
				return
			}
		}
		num.phaseDur[t] = append(num.phaseDur[t], busy)
		busy = 0
		if re.flags.Aborted() {
			return
		}
		// Step D: lower blocks L_ij for ancestors i of j, round-robin over
		// the threads of subtree(j).
		if !num.waitOn(re.flags, j, j, t) {
			return
		}
		nsub := s.leafHi[j] - s.leafLo[j] + 1
		for idx, i := range s.ancestors[j] {
			if idx%nsub != t-s.leafLo[j] {
				continue
			}
			if !live(i, j) {
				continue
			}
			lows, ups, ok := num.gatherRowReductionOn(re.flags, i, j, t)
			if !ok {
				num.phaseDur[t] = append(num.phaseDur[t], busy)
				return
			}
			t0 = time.Now()
			kind = trace.KindNDKernel
			if num.useDense(i, j) {
				kind = trace.KindDenseRefresh
			}
			b := num.a[i][j]
			if len(lows) > 0 {
				if num.useDense(i, j) {
					num.denseHits.Add(1)
					reduceBlockDense(num.a[i][j], lows, ups, num.red[i][j], num.denseWS(t))
				} else {
					reduceBlockInto(num.red[i][j], num.a[i][j], lows, ups, acc)
				}
				b = num.red[i][j]
			}
			if num.useDense(i, j) && num.useDense(j, j) {
				num.denseHits.Add(1)
				num.diag[j].DenseLowerRefactorFrom(num.lower[i][j], b, 0)
			} else {
				num.diag[j].RefactorLowerBlock(num.lower[i][j], b, acc)
			}
			re.flags.set(i, j)
			d = time.Since(t0)
			busy += d.Seconds()
			record(d, kind)
		}
		num.phaseDur[t] = append(num.phaseDur[t], busy)
		busy = 0
		if re.flags.Aborted() {
			return
		}
	}
}

// reduceBlockInto refreshes dst = A0 − Σ_t lows[t]·ups[t] over dst's fixed
// structural pattern (built by reduceBlock at factorization time from the
// same contributing patterns), so every touched accumulator index lies in
// dst's column pattern and comes back clean. Zero allocation.
func reduceBlockInto(dst, a0 *sparse.CSC, lows, ups []*sparse.CSC, acc []float64) {
	for c := 0; c < dst.N; c++ {
		for p := a0.Colptr[c]; p < a0.Colptr[c+1]; p++ {
			acc[a0.Rowidx[p]] += a0.Values[p]
		}
		for t := range lows {
			lo, up := lows[t], ups[t]
			for p := up.Colptr[c]; p < up.Colptr[c+1]; p++ {
				k := up.Rowidx[p]
				ukc := up.Values[p]
				if ukc == 0 {
					continue // refreshed value drifted to zero: no contribution
				}
				for q := lo.Colptr[k]; q < lo.Colptr[k+1]; q++ {
					acc[lo.Rowidx[q]] -= lo.Values[q] * ukc
				}
			}
		}
		for p := dst.Colptr[c]; p < dst.Colptr[c+1]; p++ {
			i := dst.Rowidx[p]
			dst.Values[p] = acc[i]
			acc[i] = 0
		}
	}
}
