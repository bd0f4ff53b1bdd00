package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/faultinject"
	"repro/internal/gp"
	"repro/internal/sparse"
	"repro/internal/trace"
)

// refreshMode selects what a refresh sweep gathers and which coarse blocks
// it reworks. Refactor, RefactorAuto and RefactorPartial all run the one
// scheduler below.
type refreshMode uint8

const (
	// refreshFull (Refactor) gathers every block's values and refreshes
	// every block with the full kernels.
	refreshFull refreshMode = iota
	// refreshAuto (RefactorAuto) diff-gathers every block and refreshes,
	// selectively, only the blocks whose input values changed.
	refreshAuto
	// refreshPartial (RefactorPartial) refreshes the blocks the driver
	// marked dirty; the change-set path already scattered their values.
	refreshPartial
)

func (m refreshMode) phase() trace.Phase {
	if m == refreshFull {
		return trace.PhaseRefactor
	}
	return trace.PhasePartial
}

func (m refreshMode) sweep() faultinject.Sweep {
	if m == refreshFull {
		return faultinject.SweepRefactor
	}
	return faultinject.SweepPartial
}

// blockGather is one coarse block's owner-computes gather plan. src[k]
// sends entry q of the block's k-th input storage — a small block's sub
// (k = 0) or a fine-ND block's a[i][j] (k = i*nb+j) — to its entry of the
// caller's CSC. off[c] lists the permuted positions of the coarse
// off-diagonal entries in the columns of column node c (c = 0 for a small
// block); they feed solves from permuted storage only. The maps are int32;
// buildPipeline rejects matrices with more entries.
type blockGather struct {
	src [][]int32
	off [][]int32
}

// ndInput is what the region workers of a fine-ND block's sweep gather
// from: the block's plan, the permuted → caller entry map, the caller's
// values and permuted storage.
type ndInput struct {
	g       *blockGather
	permMap []int
	av, pv  []float64
}

// buildGather composes the caller → permuted entry map (permMap) with every
// block's permuted → block-storage maps into the gather plans.
func (num *Numeric) buildGather(pipe *refactorPipeline) []blockGather {
	sym, perm := num.Sym, num.Perm
	compose := func(pos []int) []int32 {
		src := make([]int32, len(pos))
		for q, p := range pos {
			src[q] = int32(pipe.permMap[p])
		}
		return src
	}
	// offDiag lists the entries of permuted columns [c0, c1) whose rows lie
	// outside the coarse block [r0, r1).
	offDiag := func(c0, c1, r0, r1 int) []int32 {
		n := 0
		for p := perm.Colptr[c0]; p < perm.Colptr[c1]; p++ {
			if r := perm.Rowidx[p]; r < r0 || r >= r1 {
				n++
			}
		}
		off := make([]int32, 0, n)
		for p := perm.Colptr[c0]; p < perm.Colptr[c1]; p++ {
			if r := perm.Rowidx[p]; r < r0 || r >= r1 {
				off = append(off, int32(p))
			}
		}
		return off
	}
	gs := make([]blockGather, sym.NumBlocks())
	for blk := range gs {
		r0, r1 := sym.BlockPtr[blk], sym.BlockPtr[blk+1]
		g := &gs[blk]
		if sym.kind[blk] == blockSmall {
			g.src = [][]int32{compose(pipe.smallSrc[blk])}
			g.off = [][]int32{offDiag(r0, r1, r0, r1)}
			continue
		}
		ndn := num.nd[blk]
		nb := ndn.sym.nb
		g.src = make([][]int32, nb*nb)
		g.off = make([][]int32, nb)
		for i, row := range ndn.aSrc {
			for j, pos := range row {
				if pos != nil {
					g.src[i*nb+j] = compose(pos)
				}
			}
		}
		for j := 0; j < nb; j++ {
			b0, b1 := ndn.sym.blockRange(j)
			g.off[j] = offDiag(r0+b0, r0+b1, r0, r1)
		}
	}
	return gs
}

// gatherInto refreshes input storage b from the caller's values av: entry
// q takes av[src[q]] and is mirrored into permuted storage at pv[pos[q]].
// With colStamp nil it copies every entry (Refactor) and returns 0.
// Otherwise it diffs: values are compared by bit pattern (so a signed-zero
// restamp counts as a change), each changed column c is stamped
// colStamp[c] = epoch, and the first changed column (-1 when none) is
// returned. The diff first copies into b while counting changed entries —
// one flat pass, since a per-column loop over columns of two or three
// entries costs three times as much — and permuted storage, which still
// holds the previous values, settles the columns: untouched when nothing
// changed, mirrored flat with every column stamped when everything did,
// and compared column by column only for a partly changed block.
func gatherInto(b *sparse.CSC, src []int32, pos []int, av, pv []float64, colStamp []uint64, epoch uint64) int {
	bv := b.Values[:len(src)]
	pos = pos[:len(src)]
	if colStamp == nil {
		for q, s := range src {
			v := av[s]
			bv[q] = v
			pv[pos[q]] = v
		}
		return 0
	}
	changed := 0
	for q, s := range src {
		v := av[s]
		d := math.Float64bits(v) ^ math.Float64bits(bv[q])
		changed += int((d | -d) >> 63)
		bv[q] = v
	}
	if changed == 0 {
		return -1
	}
	colptr := b.Colptr[:b.N+1]
	first := -1
	if changed == len(src) {
		for q, p := range pos {
			pv[p] = bv[q]
		}
		for c := 0; c < b.N; c++ {
			if colptr[c+1] > colptr[c] {
				colStamp[c] = epoch
				if first < 0 {
					first = c
				}
			}
		}
		return first
	}
	for c := 0; c < b.N; c++ {
		hit := false
		for q := colptr[c]; q < colptr[c+1]; q++ {
			if v := bv[q]; math.Float64bits(v) != math.Float64bits(pv[pos[q]]) {
				pv[pos[q]] = v
				hit = true
			}
		}
		if hit {
			colStamp[c] = epoch
			if first < 0 {
				first = c
			}
		}
	}
	return first
}

// gatherOff copies the coarse off-diagonal entries at permuted positions
// off from the caller's values (they never dirty a factor, so no compare).
func gatherOff(off []int32, permMap []int, av, pv []float64) {
	for _, p := range off {
		pv[p] = av[permMap[p]]
	}
}

// gatherSmall refreshes small block blk's input and coarse off-diagonal
// entries from the running sweep's caller values. With diff it stamps the
// changed columns and reports whether any in-block value changed.
func (num *Numeric) gatherSmall(blk int, diff bool) bool {
	pipe, inc := num.pipe, num.inc
	g := &pipe.gather[blk]
	pv := num.Perm.Values
	gatherOff(g.off[0], pipe.permMap, pipe.av, pv)
	var stamp []uint64
	var epoch uint64
	if diff {
		stamp, epoch = inc.colStamp[num.Sym.BlockPtr[blk]:num.Sym.BlockPtr[blk+1]], inc.epoch
	}
	return gatherInto(pipe.smallSub[blk], g.src[0], pipe.smallSrc[blk], pipe.av, pv, stamp, epoch) >= 0
}

// gatherNode refreshes the input blocks a[·][j] of column node j, and the
// coarse off-diagonal entries in its columns, from in. With st non-nil it
// diffs and marks what changed: the column stamps, the (i, j) pairs and
// node j's first changed column. Every mark of column node j is written by
// the one worker that gathers it.
func (num *ndNum) gatherNode(j int, in *ndInput, st *ndIncState) {
	s := num.sym
	gatherOff(in.g.off[j], in.permMap, in.av, in.pv)
	var stamp []uint64
	var epoch uint64
	if st != nil {
		b0, b1 := s.blockRange(j)
		stamp, epoch = st.colStamp[b0:b1], st.epoch
	}
	for i := 0; i < s.nb; i++ {
		src := in.g.src[i*s.nb+j]
		if src == nil {
			continue
		}
		c := gatherInto(num.a[i][j], src, num.aSrc[i][j], in.av, in.pv, stamp, epoch)
		if st != nil && c >= 0 {
			st.pairStamp[i*s.nb+j] = epoch
			st.markNDNode(j, c, epoch)
		}
	}
}

// refresh runs one refresh sweep over the coarse blocks: Refactor,
// RefactorAuto and RefactorPartial differ only in mode. av is the caller's
// values for the gathering modes (nil for refreshPartial). Every worker
// gathers the blocks it refreshes, so no serial pass over the matrix
// precedes the sweep. Clean blocks of a partial sweep have their
// completion slots pre-set and are never visited; a RefactorAuto worker
// sets the slot of a block it finds unchanged. Scheduling, pivot-drift
// fallbacks and the error contract are shared by all modes.
func (num *Numeric) refresh(ctx context.Context, av []float64, mode refreshMode) (err error) {
	sym, pipe, inc := num.Sym, num.pipe, num.inc
	nblocks := sym.NumBlocks()
	sweep := sym.Opts.Trace.BeginSweep(mode.phase())
	defer sweep.End()
	pipe.mode, pipe.av = mode, av
	defer func() {
		// Stragglers of a cancelled sweep may still read av; the next
		// sweep drains them before it overwrites it.
		if !num.sweep.Canceled() {
			pipe.av = nil
		}
	}()
	for i := range pipe.errs {
		pipe.errs[i] = nil
	}
	for t := range num.btfBusy {
		num.btfBusy[t] = 0
	}
	num.SyncWaits = 0
	num.SyncWaitNs = 0
	num.ndSim = 0
	pipe.sig.Reset()
	for blk := 0; blk < nblocks; blk++ {
		if !num.mayRefresh(blk) {
			pipe.sig.Set(blk)
		}
	}
	armed := MonitorArmed(ctx, sym.Opts.StallTimeout)
	num.sweep.BeginSweep(armed)
	if armed {
		name := "refactor"
		if mode != refreshFull {
			name = "partial refactor"
		}
		mon := StartSweepMonitor(MonitorSpec{
			Ctx: ctx, Stall: sym.Opts.StallTimeout, Sweep: name, Ctl: &num.sweep,
			Pending: func() (int, int) { return num.pendingCoarse(pipe.sig) },
		})
		defer func() {
			if merr := mon.Stop(); merr != nil {
				num.incPoisoned = true
				err = merr
			}
		}()
	}
	if nt := sym.Opts.threads(); nt == 1 {
		for blk := 0; blk < nblocks; blk++ {
			if num.mayRefresh(blk) {
				num.refreshBlock(blk, 0)
			}
		}
	} else {
		num.refreshParallel(nt, armed)
	}
	if perr := num.takePanicErr(); perr != nil {
		num.incPoisoned = true
		return perr
	}
	if num.sweep.Canceled() {
		// Cancelled mid-sweep: stragglers may still be refreshing blocks,
		// so no post-processing may touch them. The deferred monitor stop
		// replaces this marker with the typed cancellation error.
		num.incPoisoned = true
		return errSweepAborted
	}
	dirty := func(blk int) bool { return mode == refreshFull || inc.blkStamp[blk] == inc.epoch }
	if mode != refreshFull {
		n := 0
		for blk := 0; blk < nblocks; blk++ {
			if dirty(blk) {
				n++
			}
		}
		num.lastDirty = n
		num.dirtyTotal += int64(n)
	}
	for _, err := range pipe.errs {
		if err != nil {
			num.incPoisoned = true
			return err
		}
	}
	for blk := 0; blk < nblocks; blk++ {
		if sym.kind[blk] == blockND && dirty(blk) {
			num.SyncWaits += num.nd[blk].SyncWaits
			num.SyncWaitNs += num.nd[blk].SyncWaitNs
			num.ndSim += num.nd[blk].simSeconds()
		}
	}
	if pipe.changed.Load() {
		num.nnzLU = num.countNnzLU()
		pipe.changed.Store(false)
	}
	num.incPoisoned = false
	return nil
}

// mayRefresh reports whether the running sweep visits coarse block blk:
// every block under Refactor and RefactorAuto (whose workers find out
// while gathering), only the marked ones under RefactorPartial.
func (num *Numeric) mayRefresh(blk int) bool {
	return num.pipe.mode != refreshPartial || num.inc.blkStamp[blk] == num.inc.epoch
}

// refreshParallel is the unified refresh scheduler: every fine-ND block
// gets its own cooperative region and the fine-BTF partition runs on its
// flop-balanced worker sweeps (Algorithm 2), all concurrently, so
// independent ND blocks overlap each other and the small-block sweeps. The
// goroutine bodies are prebuilt with the pipeline, so a sweep launches
// without allocating. Unarmed sweeps join on the WaitGroup; armed ones join
// point-to-point on the completion fabric, whose waits break on
// cancellation so the driver returns within the watchdog's bound while a
// stalled worker still sleeps (stragglers drain at the next sweep's entry).
func (num *Numeric) refreshParallel(nt int, armed bool) {
	sym, pipe := num.Sym, num.pipe
	// Blocks no worker owns (none in practice) are refreshed inline before
	// any worker starts, so worker 0's workspace is never shared with a
	// live goroutine.
	for _, blk := range pipe.unowned {
		if num.mayRefresh(blk) {
			num.refreshBlock(blk, 0)
		}
	}
	for blk, run := range pipe.runND {
		if run != nil && num.mayRefresh(blk) {
			pipe.wg.Add(1)
			num.sweep.addWorker()
			go run()
		}
	}
	for t := 0; t < nt; t++ {
		for _, blk := range sym.partition[t] {
			if num.mayRefresh(blk) {
				pipe.wg.Add(1)
				num.sweep.addWorker()
				go pipe.runPart[t]()
				break
			}
		}
	}
	if armed {
		for blk := 0; blk < sym.NumBlocks(); blk++ {
			if !pipe.sig.Wait(blk) {
				return
			}
		}
	}
	pipe.wg.Wait()
}

// ndBlockWorker is the goroutine body refreshing fine-ND block blk.
func (num *Numeric) ndBlockWorker(blk int) {
	pipe := num.pipe
	defer num.sweep.workerDone()
	defer pipe.wg.Done()
	defer func() {
		// Force-release the owned slot on panic (Set is idempotent), so an
		// armed point-to-point join quiesces.
		if r := recover(); r != nil {
			num.notePanic(r)
			pipe.sig.Set(blk)
		}
	}()
	num.Sym.Opts.Inject.WorkerPanic(pipe.mode.sweep(), blk)
	num.refreshBlock(blk, 0)
}

// partitionWorker is the goroutine body of fine-BTF worker t: it refreshes
// the blocks of its partition that the sweep visits, in order.
func (num *Numeric) partitionWorker(t int) {
	sym, pipe := num.Sym, num.pipe
	defer num.sweep.workerDone()
	defer pipe.wg.Done()
	defer num.recoverRelease(pipe.sig, sym.partition[t])
	sym.Opts.Inject.WorkerPanic(pipe.mode.sweep(), sym.NumBlocks()+t)
	for _, blk := range sym.partition[t] {
		if num.mayRefresh(blk) {
			num.refreshBlock(blk, t)
		}
	}
}

// refreshBlock gathers and refreshes one coarse block in place (worker
// index t selects the pooled fine-BTF workspace and timing slot) and
// signals its completion slot. Under RefactorAuto a block whose input
// values did not change is left as it is. A reused pivot sequence defeated
// by the new values (gp.ErrSingular) triggers a per-block fallback to a
// fresh pivoting factorization, rebuilt from storage the gather keeps
// current; the replacement is published only after it is fully built, and
// the sweep carries on with the remaining blocks.
func (num *Numeric) refreshBlock(blk, t int) {
	sym, pipe, inc := num.Sym, num.pipe, num.inc
	if num.sweep.Canceled() {
		pipe.sig.Set(blk)
		return
	}
	mode := pipe.mode
	sweep, phase := mode.sweep(), mode.phase()
	inject, rec := sym.Opts.Inject, sym.Opts.Trace
	var err error
	switch sym.kind[blk] {
	case blockSmall:
		r0, r1 := sym.BlockPtr[blk], sym.BlockPtr[blk+1]
		sub := pipe.smallSub[blk]
		// The block's trace span covers its gather and its refresh, so a
		// traced sweep records one event per block.
		start := rec.Now()
		if mode != refreshPartial {
			if !num.gatherSmall(blk, mode == refreshAuto) {
				pipe.sig.Set(blk)
				return
			}
			if mode == refreshAuto {
				inc.blkStamp[blk] = inc.epoch
			}
		}
		num.hookStart(blk, false)
		if inject.KernelNaN(sweep, blk) && sub.Nnz() > 0 {
			sub.Values[0] = nan()
		}
		t0 := time.Now()
		switch {
		case inject.PivotFail(sweep, blk):
			err = gp.ErrSingular
		case mode == refreshFull:
			err = num.small[blk].Refactor(sub, num.workerWS(t))
		default:
			err = num.small[blk].RefactorSelective(sub, num.workerWS(t),
				inc.colStamp[r0:r1], inc.epoch, inc.rerun[r0:r1])
		}
		if err != nil && errors.Is(err, gp.ErrSingular) {
			// Pivot drift: re-pivot this block alone (sub holds the complete
			// current block). A second armed PivotFail also takes down the
			// fallback, exercising the poisoned-numeric path.
			num.pivotFallbacks.Add(1)
			if inject.PivotFail(sweep, blk) {
				err = gp.ErrSingular
			} else {
				var f *gp.Factors
				f, err = gp.Factor(sub, sym.estNnz[blk], num.gpOpts(), num.workerWS(t))
				if err == nil {
					num.small[blk] = f
					pipe.changed.Store(true)
				}
			}
		}
		d := time.Since(t0)
		num.btfBusy[t] += d.Seconds()
		if rec != nil {
			rec.Record(trace.Event{Start: start, End: rec.Now(),
				Worker: int32(t), Block: int32(blk), Kind: trace.KindSmallBlock, Phase: phase})
		}
		if err != nil {
			err = fmt.Errorf("core: refactor small block %d: %w", blk, err)
		}
		num.hookDone(blk, false)
	case blockND:
		// RefactorAuto learns whether the block changed only inside its
		// region, so its hooks bracket a refresh that did run.
		if mode != refreshAuto {
			num.hookStart(blk, true)
		}
		ndn := num.nd[blk]
		var in *ndInput
		if mode != refreshPartial {
			in = &ndInput{g: &pipe.gather[blk], permMap: pipe.permMap, av: pipe.av, pv: num.Perm.Values}
		}
		var st *ndIncState
		if mode != refreshFull {
			st = inc.nd[blk]
			st.epoch = inc.epoch
		}
		poison := inject.KernelNaN(sweep, blk)
		dirty := true
		if inject.PivotFail(sweep, blk) {
			err = gp.ErrSingular
			if in != nil {
				// The fallback rebuilds from permuted storage: bring it
				// current first.
				for j := 0; j < ndn.sym.nb; j++ {
					ndn.gatherNode(j, in, nil)
				}
			}
		} else {
			dirty, err = ndn.refactorSweep(in, st, poison)
		}
		if mode == refreshAuto {
			if !dirty && err == nil {
				pipe.sig.Set(blk)
				return
			}
			inc.blkStamp[blk] = inc.epoch
			num.hookStart(blk, true)
		}
		if err != nil && errors.Is(err, gp.ErrSingular) {
			// Pivot drift inside the 2D hierarchy: rebuild this coarse block
			// with a fresh parallel factorization (new pivots), published
			// only once completely built.
			num.pivotFallbacks.Add(1)
			if inject.PivotFail(sweep, blk) {
				err = gp.ErrSingular
			} else {
				var grid *ndGrid
				if num.planned {
					grid = sym.ndsym[blk].grid
				}
				var fresh *ndNum
				fresh, err = factorND(num.Perm, blk, sym.BlockPtr[blk], sym.ndsym[blk], num.sweepOpts(), grid, nil)
				if err == nil {
					fresh.ensureRefactorState()
					num.nd[blk] = fresh
					num.remapBlockDst(blk)
					pipe.changed.Store(true)
				}
			}
		}
		if err != nil {
			err = fmt.Errorf("core: refactor nd block %d: %w", blk, err)
		}
		num.hookDone(blk, true)
	}
	if err != nil {
		pipe.errs[blk] = err
	}
	inject.StallPoint(sweep, blk)
	pipe.sig.Set(blk)
}
