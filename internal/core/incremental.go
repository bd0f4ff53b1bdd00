package core

import (
	"context"
	"fmt"

	"repro/internal/sparse"
)

// incState is the change-tracking side of the incremental refactorization
// subsystem, built lazily on the first RefactorPartial/RefactorAuto call
// and reused forever: epoch-stamped dirty sets at every granularity the
// sweep skips work at — coarse BTF blocks, the dirty columns inside a
// diagonal block (gp.RefactorSelective recomputes their dependency
// closure alone), and the (row-node, column-node) pairs of each fine-ND
// block's 2D hierarchy. RefactorPartial marks in O(size of the change
// set) on the driver; RefactorAuto's sweep workers mark while they
// diff-gather the blocks they own. Nothing here allocates after
// construction.
type incState struct {
	// permColOf[j] is the permuted column position of original column j
	// (the inverse of Sym.ColPerm).
	permColOf []int
	// epoch stamps the current partial sweep; a dirty mark is live only
	// when its stamp equals the epoch, so resetting the dirty sets between
	// sweeps costs one increment.
	epoch uint64
	// blkStamp[blk] == epoch marks coarse block blk dirty this sweep.
	blkStamp []uint64
	// nd[blk] is the fine-grained dirty state of fine-ND blocks (nil for
	// small blocks).
	nd []*ndIncState
	// colStamp[k] == epoch marks permuted column k as carrying an in-block
	// change; rerun[k] is the per-sweep scratch the selective
	// Gilbert–Peierls refresh records its column closure in. Both are
	// indexed by permuted position, so each diagonal block owns a disjoint
	// slice and concurrent block refreshes never share state.
	colStamp []uint64
	rerun    []bool
	// aDst/aPos are the reverse scatter map of the diagonal-block gathers:
	// permuted entry t lands at aDst[t].Values[aPos[t]] (nil for coarse
	// off-diagonal entries, which live in permuted storage only). Marking a
	// changed entry forwards its value straight into the small-block or
	// 2D-hierarchy input storage, so the partial sweep never re-extracts a
	// block and the marking cost stays proportional to the change set.
	aDst []*sparse.CSC
	aPos []int32
}

// ndIncState tracks dirtiness inside one fine-ND block at tree-node
// granularity: pairStamp marks the (row-node, column-node) input blocks a
// change set touches, and chg is the per-sweep materialized changed-kernel
// matrix the dependency recurrences of decideColumn fill from those
// marks.
type ndIncState struct {
	// nodeOf[c] is the tree node whose index range contains block-local
	// row/column c; colOf[c] is c's column index local to that node.
	nodeOf []int
	colOf  []int
	// pairStamp[i*nb+j] == epoch marks input block (i, j) as holding
	// changed values.
	pairStamp []uint64
	// chg[i*nb+j] reports whether kernel (i, j) must rerun this sweep.
	chg []bool
	// nodeStamp[v] == epoch marks node v's column range as touched;
	// nodeFirst[v] is then the smallest changed node-local column, and
	// first[v] its per-sweep resolution (0 for untouched nodes) — the
	// suffix starting point the leaf off-diagonal kernels refactor from.
	nodeStamp []uint64
	nodeFirst []int
	first     []int
	// colStamp/rerun are this coarse block's slices of the incState arrays
	// (block-local indexing), and epoch the sweep's stamp — what the leaf
	// diagonal kernels need for the selective per-column refresh.
	colStamp []uint64
	rerun    []bool
	epoch    uint64
}

// ensureIncremental builds the refactor pipeline (if the first incremental
// call precedes any full Refactor) and the change-tracking state.
func (num *Numeric) ensureIncremental(a *sparse.CSC) error {
	if num.pipe == nil {
		pipe, err := num.buildPipeline(a)
		if err != nil {
			return err
		}
		num.pipe = pipe
	}
	if num.inc != nil {
		return nil
	}
	sym := num.Sym
	nblocks := sym.NumBlocks()
	inc := &incState{
		permColOf: make([]int, sym.N),
		blkStamp:  make([]uint64, nblocks),
		nd:        make([]*ndIncState, nblocks),
		colStamp:  make([]uint64, sym.N),
		rerun:     make([]bool, sym.N),
		aDst:      make([]*sparse.CSC, num.Perm.Nnz()),
		aPos:      make([]int32, num.Perm.Nnz()),
	}
	for k, j := range sym.ColPerm {
		inc.permColOf[j] = k
	}
	for blk := 0; blk < nblocks; blk++ {
		switch sym.kind[blk] {
		case blockSmall:
			sub := num.pipe.smallSub[blk]
			for q, src := range num.pipe.smallSrc[blk] {
				inc.aDst[src] = sub
				inc.aPos[src] = int32(q)
			}
		case blockND:
			ns := sym.ndsym[blk]
			bs := sym.BlockPtr[blk+1] - sym.BlockPtr[blk]
			st := &ndIncState{
				nodeOf:    make([]int, bs),
				colOf:     make([]int, bs),
				pairStamp: make([]uint64, ns.nb*ns.nb),
				chg:       make([]bool, ns.nb*ns.nb),
				nodeStamp: make([]uint64, ns.nb),
				nodeFirst: make([]int, ns.nb),
				first:     make([]int, ns.nb),
				colStamp:  inc.colStamp[sym.BlockPtr[blk]:sym.BlockPtr[blk+1]],
				rerun:     inc.rerun[sym.BlockPtr[blk]:sym.BlockPtr[blk+1]],
			}
			for b := 0; b < ns.nb; b++ {
				b0, b1 := ns.blockRange(b)
				for c := b0; c < b1; c++ {
					st.nodeOf[c] = b
					st.colOf[c] = c - b0
				}
			}
			inc.nd[blk] = st
		}
	}
	num.inc = inc
	for blk := 0; blk < nblocks; blk++ {
		if sym.kind[blk] == blockND {
			num.remapBlockDst(blk)
		}
	}
	return nil
}

// RefactorPartial is Refactor for a matrix that differs from the one the
// factorization currently holds only in the listed original-index columns:
// the change set is scattered through the cached entry maps, the dirty
// coarse blocks (and, inside fine-ND blocks, the dirty kernels of the 2D
// hierarchy) are derived from it, and every clean block or kernel keeps
// its factored values — inside a dirty fine-ND block the skipped kernels'
// completion flags are pre-armed, so the rerun kernels synchronize
// point-to-point and fall back per block exactly like Refactor, while the
// sweep touches only what the perturbation reaches. Columns not listed must hold values identical to
// the previous refresh (Factor, FactorInto, Refactor, RefactorPartial or
// RefactorAuto — whichever last ran, including a failed attempt); listing
// extra unchanged columns is allowed and merely wastes work. The sparsity
// pattern must match the analyzed one: dimensions, the column pointers and
// every changed column's rows are verified, while unchanged columns are
// trusted (the full O(nnz) verification of Refactor would dwarf a small
// change set).
//
// The exclusion and error contracts are Refactor's: no concurrent solves,
// and on error the values are unspecified until a subsequent refresh
// succeeds (a failed sweep is remembered, so the next incremental call
// transparently runs a full refresh to re-establish a consistent state).
func (num *Numeric) RefactorPartial(a *sparse.CSC, changed []int) error {
	return num.RefactorPartialCtx(context.Background(), a, changed)
}

// RefactorPartialCtx is RefactorPartial with cooperative cancellation: a
// fired ctx aborts the dirty-block sweep at the next block boundary and
// returns ErrCanceled or ErrDeadlineExceeded, leaving the numeric poisoned
// but recoverable (the next refresh transparently runs a full recovery
// sweep). A ctx with a Done channel also arms the sweep monitor, as does
// Options.StallTimeout for stall detection.
func (num *Numeric) RefactorPartialCtx(ctx context.Context, a *sparse.CSC, changed []int) (err error) {
	sym := num.Sym
	if a.N != sym.N || a.M != sym.N {
		return fmt.Errorf("core: dimension mismatch with symbolic analysis")
	}
	// A context already expired at entry rejects before any numeric work.
	if ctx != nil && ctx.Err() != nil {
		return CancelCause(ctx)
	}
	// Quiesce stragglers from a previously canceled sweep before touching
	// any state they might still write (fast path: one atomic load).
	num.sweep.drain()
	// Serial-path panic isolation: a panic during marking or the serial
	// sweep poisons the numeric, so the next incremental call runs a full
	// recovery refresh.
	defer func() {
		if r := recover(); r != nil {
			num.notePanic(r)
			num.incPoisoned = true
			err = num.takePanicErr()
		}
	}()
	if err := num.ensureIncremental(a); err != nil {
		return err
	}
	if num.incPoisoned {
		// A prior failed sweep left unspecified values behind; the partial
		// contract cannot hold, so recover through one full refresh.
		return num.RefactorCtx(ctx, a)
	}
	if len(changed)*2 >= sym.N {
		// Near-total change sets gain nothing from per-column marking; the
		// flat full sweep is faster, so degrade to it transparently (this
		// also keeps the 100%-changed case at full-Refactor speed).
		return num.RefactorCtx(ctx, a)
	}
	pipe := num.pipe
	if a.Nnz() != len(pipe.rowidx) {
		return fmt.Errorf("core: refactor pattern mismatch: %d entries, analyzed %d", a.Nnz(), len(pipe.rowidx))
	}
	for j, c := range pipe.colptr {
		if a.Colptr[j] != c {
			return fmt.Errorf("core: refactor pattern mismatch in column %d", j-1)
		}
	}
	// Validate the whole change set before gathering anything: a rejected
	// column must not leave earlier columns' values already scattered into
	// resident storage (that would silently break the next sweep's
	// unchanged-columns contract without the poison flag ever being set).
	inc := num.inc
	for _, j := range changed {
		if j < 0 || j >= sym.N {
			return fmt.Errorf("core: RefactorPartial: column %d out of range", j)
		}
		k := inc.permColOf[j]
		p0, p1 := num.Perm.Colptr[k], num.Perm.Colptr[k+1]
		for t := p0; t < p1; t++ {
			if s := pipe.permMap[t]; a.Rowidx[s] != pipe.rowidx[s] {
				return fmt.Errorf("core: refactor pattern mismatch in column %d", j)
			}
		}
	}
	inc.epoch++
	for _, j := range changed {
		num.gatherChangedColumn(a, inc.permColOf[j])
	}
	return num.refresh(ctx, nil, refreshPartial)
}

// RefactorAuto is Refactor with automatic change discovery: every sweep
// worker diffs the incoming values of the blocks it refreshes against
// their resident input storage while it gathers them (bit patterns, so a
// signed-zero restamp counts as a change) and refreshes only the blocks
// whose values changed. Callers that cannot (or do not want to) track
// their own change sets get the incremental fast path transparently. The
// compare rides the gather Refactor performs anyway, in parallel inside
// the sweep, so a fully changed matrix costs about what Refactor costs: on
// the all-changed Xyce transient steps at Threads 2 on a 2-CPU host,
// RefactorAuto took 1.03–1.06× Refactor's time (the XyceSequence rows of
// `go test -run xxx -bench XyceSequence/basker -benchmem .` compare the
// two). Values that change only in coarse off-diagonal entries are copied
// but dirty no block.
//
// Exclusion and error contracts are Refactor's.
func (num *Numeric) RefactorAuto(a *sparse.CSC) error {
	return num.RefactorAutoCtx(context.Background(), a)
}

// RefactorAutoCtx is RefactorAuto with cooperative cancellation and stall
// monitoring; the contract matches RefactorPartialCtx.
func (num *Numeric) RefactorAutoCtx(ctx context.Context, a *sparse.CSC) (err error) {
	sym := num.Sym
	if a.N != sym.N || a.M != sym.N {
		return fmt.Errorf("core: dimension mismatch with symbolic analysis")
	}
	// A context already expired at entry rejects before any numeric work.
	if ctx != nil && ctx.Err() != nil {
		return CancelCause(ctx)
	}
	num.sweep.drain()
	defer func() {
		if r := recover(); r != nil {
			num.notePanic(r)
			num.incPoisoned = true
			err = num.takePanicErr()
		}
	}()
	if err := num.ensureIncremental(a); err != nil {
		return err
	}
	if num.incPoisoned {
		return num.RefactorCtx(ctx, a)
	}
	if err := num.pipe.checkPattern(a); err != nil {
		return err
	}
	num.inc.epoch++
	return num.refresh(ctx, a.Values, refreshAuto)
}

// markNDNode records a change in node jn at node-local column c.
func (st *ndIncState) markNDNode(jn, c int, epoch uint64) {
	if st.nodeStamp[jn] != epoch {
		st.nodeStamp[jn] = epoch
		st.nodeFirst[jn] = c
	} else if c < st.nodeFirst[jn] {
		st.nodeFirst[jn] = c
	}
}

// gatherChangedColumn scatters permuted column k of a into permuted storage
// and, through the reverse scatter map, into the owning block's input
// storage, marking the dirty structures as it goes — the explicit
// change-set path, which trusts the caller that any entry of the column may
// have changed.
func (num *Numeric) gatherChangedColumn(a *sparse.CSC, k int) {
	sym, pipe, inc := num.Sym, num.pipe, num.inc
	perm := num.Perm
	p0, p1 := perm.Colptr[k], perm.Colptr[k+1]
	sparse.GatherRange(perm, a, pipe.permMap, p0, p1)
	blk := sym.blockOf[k]
	r0 := sym.BlockPtr[blk]
	inc.colStamp[k] = inc.epoch
	inc.blkStamp[blk] = inc.epoch
	pv := perm.Values
	if sym.kind[blk] != blockND {
		for t := p0; t < p1; t++ {
			if d := inc.aDst[t]; d != nil {
				d.Values[inc.aPos[t]] = pv[t]
			}
		}
		return
	}
	st := inc.nd[blk]
	nb := sym.ndsym[blk].nb
	jn := st.nodeOf[k-r0]
	st.markNDNode(jn, st.colOf[k-r0], inc.epoch)
	for t := p0; t < p1; t++ {
		d := inc.aDst[t]
		if d == nil {
			continue // coarse off-diagonal entry: permuted storage only
		}
		d.Values[inc.aPos[t]] = pv[t]
		st.pairStamp[st.nodeOf[perm.Rowidx[t]-r0]*nb+jn] = inc.epoch
	}
}

// remapBlockDst re-points the reverse scatter map at coarse block blk's
// current input storage — required after an ND pivot-drift fallback
// replaces the whole 2D hierarchy (small-block fallbacks keep their gather
// target, so only fine-ND blocks ever need this).
func (num *Numeric) remapBlockDst(blk int) {
	inc := num.inc
	if inc == nil {
		return
	}
	ndn := num.nd[blk]
	for i := range ndn.aSrc {
		for j, src := range ndn.aSrc[i] {
			if src == nil {
				continue
			}
			b := ndn.a[i][j]
			for q, s := range src {
				inc.aDst[s] = b
				inc.aPos[s] = int32(q)
			}
		}
	}
}

// decideColumn fills column j of st.chg, the changed-kernel matrix of one
// fine-ND block, from the epoch's dirty input pairs, and resolves
// st.first[j]. Columns are decided in the sweep's dependency order (every
// column below j first, see arrive), which is the schedule order of
// the 2D sweep: a kernel must rerun when its own input block changed, when
// a factor it consumes was itself rerun, or when any (lower, upper) pair
// feeding its reduction changed. This is the fine-grained form of "a dirty
// separator column dirties its ancestors up the ND tree": dirtiness
// propagates upward exactly along the paper's dependency tree, and nothing
// else reruns.
func (ndn *ndNum) decideColumn(st *ndIncState, j int) {
	s := ndn.sym
	nb := s.nb
	chg := st.chg
	epoch := st.epoch
	for i := 0; i < nb; i++ {
		chg[i*nb+j] = false
	}
	pair := func(i int) bool { return st.pairStamp[i*nb+j] == epoch }
	st.first[j] = 0
	if st.nodeStamp[j] == epoch {
		st.first[j] = st.nodeFirst[j]
	}
	// Upper targets U_kp,j for descendants kp of j, in schedule order:
	// rerun when the input block changed, the solving diagonal factor
	// LU_kp,kp was rerun, or a reduction term from subtree(kp) changed.
	for kp := s.subLo[j]; kp < j; kp++ {
		c := pair(kp) || chg[kp*nb+kp]
		for k2 := s.subLo[kp]; k2 < kp && !c; k2++ {
			c = chg[kp*nb+k2] || chg[k2*nb+j]
		}
		chg[kp*nb+j] = c
	}
	// The diagonal LU_jj: input block or any reduction term.
	c := pair(j)
	for k2 := s.subLo[j]; k2 < j && !c; k2++ {
		c = chg[j*nb+k2] || chg[k2*nb+j]
	}
	chg[j*nb+j] = c
	// Lower targets L_ij for ancestors i of j: input block, the (just
	// decided) diagonal LU_jj, or any reduction term.
	for _, i := range s.ancestors[j] {
		c := pair(i) || chg[j*nb+j]
		for k2 := s.subLo[j]; k2 < j && !c; k2++ {
			c = chg[i*nb+k2] || chg[k2*nb+j]
		}
		chg[i*nb+j] = c
	}
}
