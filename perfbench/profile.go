package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	basker "repro"
	"repro/internal/klu"
	"repro/internal/trace"
	"repro/serve"
)

// The traced profile run. Per-layer metrics come from two sources only:
// the benchmark's own spans around calls into each layer, and the events
// and sweep summaries the library's Tracer already emits. Whatever
// --workload names, the profile covers the streams of all three workloads,
// each layer measured on the workload that exercises it, so every traced
// run reports the same metric set:
//
//	transient  core.refactor*, core.gather_ms, gp.small_block_ms,
//	           gp.nd_kernel_ms, gp.nnz_lu, trisolve.*, trace.overhead_frac,
//	           ref.klu_step_ms, ref.t1_step_ms
//	cold       order.*, core.factor*, gp.dense*, gp.snode*, ref.t1_cold_ms
//	serve      core.partial_ms, core.dirty_frac, core.pivot_fallbacks,
//	           pool.*, serve.*, sparse.validate_ms
//
// Reference numbers (ref.*) are diagnostics: serial KLU and one-thread
// Basker on the same inputs, never headline figures.

// Shares of --seconds given to each workload's part of the profile.
const (
	profTransientShare = 0.35
	profColdShare      = 0.30
	profServeShare     = 0.35
)

// tracerCapacity holds comfortably more events than one operation of any
// workload records (≈2000 for a transient step), so draining the ring
// after every operation loses none; a sweep that overflows it is counted
// in the dropped_events diagnostic.
const tracerCapacity = 1 << 13

// stageSumTolerance is how far the sum of the serve replay's stage
// medians (decode, acquire, solve, encode) may stray from the median of
// Server.ServeHTTP on the same pool and mix before the profile is void:
// its stages would no longer account for the handler.
const stageSumTolerance = 0.25

// eventDrain reads the events recorded since its last call.
type eventDrain struct {
	tr      *basker.Tracer
	mark    int64
	dropped int
}

func newEventDrain(tr *basker.Tracer) *eventDrain { return &eventDrain{tr: tr, mark: tr.Now()} }

// skip discards the events recorded so far.
func (d *eventDrain) skip() { d.mark = d.tr.Now() }

// busy returns the per-kind busy nanoseconds of phase-p events recorded
// since the previous call.
func (d *eventDrain) busy(p basker.Phase) map[trace.Kind]int64 {
	out := map[trace.Kind]int64{}
	evs := d.tr.Events()
	fresh := 0
	for _, ev := range evs {
		if ev.End < d.mark {
			continue
		}
		fresh++
		if ev.Phase != p {
			continue
		}
		out[ev.Kind] += ev.End - ev.Start
	}
	if fresh == len(evs) && len(evs) == tracerCapacity {
		d.dropped++ // the ring wrapped within one operation
	}
	d.mark = d.tr.Now()
	return out
}

func nsToMS(ns int64) float64 { return float64(ns) / 1e6 }

func runProfile(cfg config) (outcome, error) {
	spans := newSpanLog()
	o := outcome{params: map[string]any{"profile": "transient+cold+serve"}}
	if err := profileTransient(cfg, seconds(cfg.seconds*profTransientShare), spans, &o); err != nil {
		return o, fmt.Errorf("transient profile: %w", err)
	}
	if err := profileCold(cfg, seconds(cfg.seconds*profColdShare), spans, &o); err != nil {
		return o, fmt.Errorf("cold profile: %w", err)
	}
	if err := profileServe(cfg, seconds(cfg.seconds*profServeShare), spans, &o); err != nil {
		return o, fmt.Errorf("serve profile: %w", err)
	}
	selfMS := map[string]float64{}
	for layer, ns := range selfTimes(spans.spans) {
		selfMS[layer] = nsToMS(ns)
	}
	o.params["layer_self_ms_total"] = selfMS
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return o, err
	}
	path := filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed))
	if err := spans.write(path, metadata(cfg, o.params)); err != nil {
		return o, err
	}
	o.params["span_log"] = path
	o.params["spans"] = len(spans.spans)
	return o, nil
}

// profileTransient measures the refresh sweep, its kernels and the solve
// layer on the transient sequence, plus the tracing overhead and the KLU
// and one-thread references.
func profileTransient(cfg config, d time.Duration, spans *spanLog, o *outcome) error {
	// An untraced twin runs one step before every traced step, so
	// trace.overhead_frac compares the two under the same host load.
	plain, err := newTransientRig(cfg.sz, cfg.seed, basker.Options{Threads: 2})
	if err != nil {
		return err
	}
	var base []float64
	tr := basker.NewTracer(tracerCapacity)
	rig, err := newTransientRig(cfg.sz, cfg.seed, basker.Options{Threads: 2, Trace: tr})
	if err != nil {
		return err
	}
	drain := newEventDrain(tr)
	y := make([]float64, len(rig.x))
	var (
		opMS, sweepMS, syncFrac, par, imb, gather []float64
		small, nd, dense, snode, solve, refined   []float64
		iters, dirty                              []float64
		opID                                      int64 = 1 << 32
	)
	traced := closedLoop(scale(d, 0.7), len(rig.in.steps), 0, func(i int) (time.Duration, error) {
		pt, err := plain.op(i)
		if err != nil {
			return 0, fmt.Errorf("untraced twin: %w", err)
		}
		base = append(base, float64(pt)/1e6)
		opID++
		k := rig.step()
		a := rig.in.steps[k]
		copy(rig.x, rig.in.rhs[k])
		drain.skip()
		op := spans.begin("transient.op", -1, opID)
		s := spans.begin("core.refactor_auto", op, opID)
		err = rig.f.RefactorAuto(a)
		ra := spans.end(s)
		var res basker.RefineResult
		s = spans.begin("trisolve.solve_refined", op, opID)
		if err == nil {
			res, err = rig.f.SolveRefined(a, rig.x, 2)
		}
		sr := spans.end(s)
		spans.end(op)
		t := time.Duration(ra + sr)
		if err != nil {
			return t, err
		}
		if err := rig.chk.check(a, rig.in.norms[k], rig.x, rig.in.rhs[k]); err != nil {
			return t, err
		}
		// RefactorAuto records its refresh as one partial sweep; whatever
		// of the call the sweep does not cover is the diff/gather pass.
		prof, _ := rig.f.Profile(basker.PhasePartial)
		busy := drain.busy(basker.PhasePartial)
		opMS = append(opMS, nsToMS(ra+sr))
		sweepMS = append(sweepMS, prof.WallSeconds*1e3)
		syncFrac = append(syncFrac, prof.SyncFraction)
		par = append(par, prof.Parallelism)
		imb = append(imb, prof.Imbalance())
		gather = append(gather, nsToMS(ra)-prof.WallSeconds*1e3)
		small = append(small, nsToMS(busy[trace.KindSmallBlock]))
		nd = append(nd, nsToMS(busy[trace.KindNDKernel]))
		dense = append(dense, nsToMS(busy[trace.KindDenseRefresh]))
		snode = append(snode, nsToMS(busy[trace.KindSnodeKernel]))
		refined = append(refined, nsToMS(sr))
		iters = append(iters, float64(res.Iterations))
		st := rig.f.Stats(a)
		dirty = append(dirty, float64(st.DirtyBlocks)/float64(st.BTFBlocks))
		// A plain solve beside the op prices the triangular solve alone.
		copy(y, rig.in.rhs[k])
		s = spans.begin("trisolve.solve", -1, opID)
		err = rig.f.Solve(y)
		solve = append(solve, nsToMS(spans.end(s)))
		return t, err
	})
	o.merge(traced.outcome())
	st := rig.f.Stats(rig.in.steps[0])
	o.add("core.refactor_ms", "ms", median(sweepMS))
	o.add("core.refactor.sync_frac", "ratio", median(syncFrac))
	o.add("core.refactor.parallelism", "ratio", median(par))
	o.add("core.refactor.imbalance", "ratio", median(imb))
	o.add("core.gather_ms", "ms", median(gather))
	o.add("gp.small_block_ms", "ms", median(small))
	o.add("gp.nd_kernel_ms", "ms", median(nd))
	o.add("gp.nnz_lu", "count", float64(st.NnzLU))
	o.add("trisolve.solve_ms", "ms", median(solve))
	o.add("trisolve.refine_ms", "ms", median(refined)-median(solve))
	o.add("trisolve.refine_iters", "count", mean(iters))
	o.add("trace.overhead_frac", "ratio", median(opMS)/median(base)-1)
	o.params["transient_dirty_frac"] = median(dirty)
	o.params["transient_dense_refresh_ms"] = median(dense)
	o.params["transient_snode_ms"] = median(snode)
	o.params["transient_dense_kernel_hits"] = st.DenseKernelHits
	o.params["transient_supernode_hits"] = st.SupernodeHits
	o.params["transient_untraced_p50_ms"] = median(base)
	o.params["transient_traced_p50_ms"] = median(opMS)
	o.params["transient_traced_ops"] = len(opMS)

	// One-thread Basker on the same sequence.
	t1, err := newTransientRig(cfg.sz, cfg.seed, basker.Options{Threads: 1})
	if err != nil {
		return err
	}
	t1Loop := closedLoop(scale(d, 0.15), len(t1.in.steps), 0, t1.op)
	o.merge(t1Loop.outcome())
	o.add("ref.t1_step_ms", "ms", median(t1Loop.lat))

	// Serial KLU: refactor + solve per step (KLU has no refinement).
	sym, err := klu.Analyze(rig.in.steps[0], klu.DefaultOptions())
	if err != nil {
		return err
	}
	num, err := klu.Factor(rig.in.steps[0], sym)
	if err != nil {
		return err
	}
	kluLoop := closedLoop(scale(d, 0.15), len(rig.in.steps), 0, func(int) (time.Duration, error) {
		k := rig.step()
		a := rig.in.steps[k]
		copy(rig.x, rig.in.rhs[k])
		t0 := time.Now()
		err := num.Refactor(a)
		if err == nil {
			num.Solve(rig.x)
		}
		t := time.Since(t0)
		if err != nil {
			return t, err
		}
		return t, rig.chk.check(a, rig.in.norms[k], rig.x, rig.in.rhs[k])
	})
	o.merge(kluLoop.outcome())
	o.add("ref.klu_step_ms", "ms", median(kluLoop.lat))
	o.params["dropped_events_transient"] = drain.dropped
	return nil
}

// profileCold measures the ordering front end, the fresh factor sweep and
// the dense/supernode kernels on the Table I suite. The suite is
// heterogeneous, so cold per-layer times are means over whole cycles —
// the statistic ops_per_s answers to.
func profileCold(cfg config, d time.Duration, spans *spanLog, o *outcome) error {
	tr := basker.NewTracer(tracerCapacity)
	rig, err := newColdRig(cfg.sz, cfg.seed, basker.Options{Threads: 2, Trace: tr})
	if err != nil {
		return err
	}
	drain := newEventDrain(tr)
	var (
		analyze, btf, amd, ndA, plan, btfBlocks, ndBlocks []float64
		factor, syncFrac, par, imb                        []float64
		dense, snode, denseHits, snodeHits                []float64
		opID                                              int64 = 2 << 32
	)
	loop := closedLoop(scale(d, 0.6), len(rig.in.mats), 0, func(int) (time.Duration, error) {
		opID++
		k := rig.step()
		a := rig.in.mats[k]
		x := rig.x[:a.N]
		copy(x, rig.in.rhs[k])
		drain.skip()
		op := spans.begin("cold.op", -1, opID)
		s := spans.begin("core.factor", op, opID)
		f, err := basker.New(rig.opts).Factor(a)
		fd := spans.end(s)
		s = spans.begin("trisolve.solve", op, opID)
		if err == nil {
			err = f.Solve(x)
		}
		sd := spans.end(s)
		spans.end(op)
		t := time.Duration(fd + sd)
		if err != nil {
			return t, err
		}
		if err := rig.chk.check(a, rig.in.norms[k], x, rig.in.rhs[k]); err != nil {
			return t, err
		}
		an, _ := f.Profile(basker.PhaseAnalyze)
		fa, _ := f.Profile(basker.PhaseFactor)
		busy := drain.busy(basker.PhaseAnalyze)
		st := f.Stats(a)
		analyze = append(analyze, an.WallSeconds*1e3)
		btf = append(btf, nsToMS(busy[trace.KindAnalyzeBTF]))
		amd = append(amd, nsToMS(busy[trace.KindAnalyzeAMD]))
		ndA = append(ndA, nsToMS(busy[trace.KindAnalyzeND]))
		plan = append(plan, nsToMS(busy[trace.KindAnalyzePlan]))
		btfBlocks = append(btfBlocks, float64(st.BTFBlocks))
		ndBlocks = append(ndBlocks, float64(st.NDBlocks))
		factor = append(factor, fa.WallSeconds*1e3)
		syncFrac = append(syncFrac, fa.SyncFraction)
		par = append(par, fa.Parallelism)
		imb = append(imb, fa.Imbalance())
		denseHits = append(denseHits, float64(st.DenseKernelHits))
		snodeHits = append(snodeHits, float64(st.SupernodeHits))
		// Fresh-factor events do not split dense-panel and supernodal
		// kernels from the rest of the ND kernels; the refresh sweep does.
		// One same-values Refactor per matrix prices those kernels.
		s = spans.begin("core.refactor", -1, opID)
		err = f.Refactor(a)
		spans.end(s)
		rb := drain.busy(basker.PhaseRefactor)
		dense = append(dense, nsToMS(rb[trace.KindDenseRefresh]))
		snode = append(snode, nsToMS(rb[trace.KindSnodeKernel]))
		return t, err
	})
	o.merge(loop.outcome())
	o.add("order.analyze_ms", "ms", mean(analyze))
	o.add("order.btf_ms", "ms", mean(btf))
	o.add("order.amd_ms", "ms", mean(amd))
	o.add("order.nd_ms", "ms", mean(ndA))
	o.add("order.plan_ms", "ms", mean(plan))
	o.add("order.btf_blocks", "count", mean(btfBlocks))
	o.add("order.nd_blocks", "count", mean(ndBlocks))
	o.add("core.factor_ms", "ms", mean(factor))
	o.add("core.factor.sync_frac", "ratio", mean(syncFrac))
	o.add("core.factor.parallelism", "ratio", mean(par))
	o.add("core.factor.imbalance", "ratio", mean(imb))
	o.add("gp.dense_ms", "ms", mean(dense))
	o.add("gp.snode_ms", "ms", mean(snode))
	o.add("gp.dense_hits", "count", mean(denseHits))
	o.add("gp.snode_hits", "count", mean(snodeHits))
	o.params["cold_traced_ops"] = loop.attempted
	o.params["cold_op_mean_ms"] = mean(loop.lat)
	o.params["dropped_events_cold"] = drain.dropped

	t1, err := newColdRig(cfg.sz, cfg.seed, basker.Options{Threads: 1})
	if err != nil {
		return err
	}
	t1Loop := closedLoop(scale(d, 0.4), len(t1.in.mats), 0, t1.op)
	o.merge(t1Loop.outcome())
	o.add("ref.t1_cold_ms", "ms", median(t1Loop.lat))
	return nil
}

// profileServe runs the serve mix three ways: over loopback HTTP with the
// handler timed inside the server (transport = client − handler), and,
// interleaved request by request on one traced pool, as an in-process
// stage replay through the public calls the handler makes and through
// Server.ServeHTTP on a recorder.
func profileServe(cfg config, d time.Duration, spans *spanLog, o *outcome) error {
	httpD, pairD := scale(d, 0.4), scale(d, 0.6)
	httpN := max(1, int(httpD.Seconds()*satRate))
	pairN := max(1, int(pairD.Seconds()*satRate/2))
	handler := newHandlerTimes(httpN)
	rig, err := newServeRigWith(cfg.sz, cfg.seed, handler.wrap)
	if err != nil {
		return err
	}
	defer rig.close()
	gen, err := newStreamGen(cfg.sz, cfg.seed, phaseProfile, rig.ids)
	if err != nil {
		return err
	}
	warm := gen.stream(warmRequests)
	httpReqs, replayReqs, recReqs := gen.stream(httpN), gen.stream(pairN), gen.stream(pairN)
	if gen.err != nil {
		return gen.err
	}
	if err := rig.warm(gen.pats, warm); err != nil {
		return err
	}

	// 1. Loopback HTTP, both connections.
	pool := rig.srv.Pool()
	ps0, ss0 := pool.Stats(), rig.srv.Stats()
	hp := rig.closedLoopHTTP(httpReqs, httpD)
	ps1, ss1 := pool.Stats(), rig.srv.Stats()
	o.merge(hp.outcome())
	var transport []float64
	for i := 0; i < hp.done; i++ {
		if h := handler.get(i); h > 0 {
			transport = append(transport, hp.lat[i]-nsToMS(h))
		}
	}
	var reqBytes int
	for _, req := range httpReqs[:hp.done] {
		reqBytes += len(req.body)
	}

	// 2. On a traced pool of the same configuration, each step replays one
	// request stage by stage and sends the next of an equal stream through
	// Server.ServeHTTP over that pool, so both sides see the same pool,
	// tracer and host load.
	tr := basker.NewTracer(tracerCapacity)
	rp, err := newReplay(gen.pats, tr)
	if err != nil {
		return err
	}
	var (
		handlerMS []float64
		chk       checker
	)
	rp.begin()
	pairs := closedLoop(pairD, 1, pairN, func(i int) (time.Duration, error) {
		if err := rp.step(replayReqs[i], 4<<32+int64(i), spans); err != nil {
			return 0, err
		}
		req := recReqs[i]
		w := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(req.body))
		s := spans.begin("serve.handler", -1, 3<<32+int64(i))
		rp.front.ServeHTTP(w, r)
		t := time.Duration(spans.end(s))
		handlerMS = append(handlerMS, float64(t)/1e6)
		return t, verify(req, w.Code, w.Body.Bytes(), &chk)
	})
	o.merge(pairs.outcome())
	rpOut := rp.finish()

	stageSum := rpOut.decode + rpOut.acquire + rpOut.solve + rpOut.encode
	ratio := stageSum / median(handlerMS)
	o.params["serve_stage_sum_ms"] = stageSum
	o.params["serve_stage_sum_ratio"] = ratio
	o.params["serve_stage_sum_tolerance"] = stageSumTolerance
	if !(ratio >= 1-stageSumTolerance && ratio <= 1+stageSumTolerance) {
		o.invalid = fmt.Sprintf("serve stage medians sum to %.3f ms against a handler median of %.3f ms (ratio %.2f outside 1±%.2f)",
			stageSum, median(handlerMS), ratio, stageSumTolerance)
	}

	o.add("core.partial_ms", "ms", median(rpOut.partial))
	o.add("core.dirty_frac", "ratio", median(rpOut.dirty))
	o.add("core.pivot_fallbacks", "count", float64(rpOut.fallbacks))
	o.add("pool.acquire_hit_ms", "ms", median(rpOut.acq[kindHit]))
	o.add("pool.acquire_refresh_ms", "ms", median(rpOut.acq[kindRefresh]))
	o.add("pool.acquire_miss_ms", "ms", median(rpOut.acq[kindMiss]))
	o.add("pool.hit_ratio", "ratio", rpOut.hitRatio)
	o.add("pool.evictions", "count", float64(rpOut.evictions))
	o.add("pool.mem_evictions", "count", float64(rpOut.memEvictions))
	o.add("pool.queue_waits", "count", float64(rpOut.queueWaits))
	o.add("pool.lock_wait_ms", "ms", (ps1.LockWaitSeconds-ps0.LockWaitSeconds)*1e3/float64(max(hp.done, 1)))
	o.add("serve.decode_ms", "ms", rpOut.decode)
	o.add("serve.encode_ms", "ms", rpOut.encode)
	o.add("serve.handler_ms", "ms", median(handlerMS))
	o.add("serve.transport_ms", "ms", median(transport))
	o.add("serve.req_kb", "KiB", float64(reqBytes)/1024/float64(max(hp.done, 1)))
	o.add("serve.resp_kb", "KiB", hp.respKB)
	o.add("serve.shed", "count", float64(ss1.Shed-ss0.Shed))
	o.add("serve.failures", "count", float64(ss1.Failures-ss0.Failures))
	o.add("sparse.validate_ms", "ms", median(rpOut.validate))
	o.params["serve_http_requests"] = hp.done
	o.params["serve_http_p50_ms"] = median(hp.lat)
	o.params["serve_replay_requests"] = pairs.attempted
	o.params["serve_replay_classes"] = rpOut.classes
	o.params["serve_pool_misses_http"] = ps1.Misses - ps0.Misses
	return nil
}

// handlerTimes records Server.ServeHTTP durations by request index, as
// carried in the X-Bench-Op header.
type handlerTimes struct {
	ns []atomic.Int64
}

func newHandlerTimes(n int) *handlerTimes { return &handlerTimes{ns: make([]atomic.Int64, n)} }

func (h *handlerTimes) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		next.ServeHTTP(w, r)
		if i, err := strconv.Atoi(r.Header.Get(opHeader)); err == nil && i >= 0 && i < len(h.ns) {
			h.ns[i].Store(int64(time.Since(t0)))
		}
	})
}

func (h *handlerTimes) get(i int) int64 {
	if i < 0 || i >= len(h.ns) {
		return 0
	}
	return h.ns[i].Load()
}

// replay drives the public calls the /v1/solve handler makes, one stage
// at a time, on its own traced pool holding the same registered patterns.
// front is a Server over that pool.
type replay struct {
	pool  *basker.ShardedPool
	front *serve.Server
	pats  map[string]*basker.Matrix

	res                            replayResult
	decode, acquire, solve, encode []float64
	lastFallbacks                  map[*basker.Factorization]int64
	ps0                            basker.PoolStats
	chk                            checker
}

// newReplay builds the traced pool and its front end and registers pats
// through the front end.
func newReplay(pats []*basker.Matrix, tr *basker.Tracer) (*replay, error) {
	rp := &replay{pool: newServerPool(tr), pats: map[string]*basker.Matrix{}}
	rp.front = newServerFront(rp.pool)
	ids, err := register(pats, func(blob []byte) (int, []byte, error) {
		w := httptest.NewRecorder()
		rp.front.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/matrices", bytes.NewReader(blob)))
		return w.Code, w.Body.Bytes(), nil
	})
	if err != nil {
		return nil, err
	}
	for i, a := range pats {
		rp.pats[ids[i]] = a
	}
	return rp, nil
}

// replayResult holds the per-stage statistics of one replay.
type replayResult struct {
	decode, acquire, solve, encode float64 // stage medians, ms
	acq                            [numKinds][]float64
	classes                        map[string]int
	partial, dirty, validate       []float64
	fallbacks                      int64
	hitRatio                       float64
	evictions, memEvictions        uint64
	queueWaits                     uint64
}

// resolve mirrors the handler's matrix selection for a decoded request.
func (rp *replay) resolve(sr *serve.SolveRequest) (*basker.Matrix, error) {
	if sr.Matrix != nil {
		m := sr.Matrix
		return &basker.Matrix{M: m.M, N: m.N, Colptr: m.Colptr, Rowidx: m.Rowidx, Values: m.Values}, nil
	}
	t, ok := rp.pats[sr.ID]
	if !ok {
		return nil, fmt.Errorf("unknown pattern %q", sr.ID)
	}
	if sr.Values == nil {
		return t, nil
	}
	return &basker.Matrix{M: t.M, N: t.N, Colptr: t.Colptr, Rowidx: t.Rowidx, Values: sr.Values}, nil
}

// begin starts the replay's statistics; the pool counters are read as
// deltas from here.
func (rp *replay) begin() {
	rp.res = replayResult{classes: map[string]int{}}
	rp.lastFallbacks = map[*basker.Factorization]int64{}
	rp.ps0 = rp.pool.Stats()
}

// step replays one request stage by stage and checks its answer.
func (rp *replay) step(req *request, id int64, spans *spanLog) error {
	res := &rp.res
	op := spans.begin("serve.replay", -1, id)
	// Decode and encode go through json.Decoder and json.Encoder as the
	// handler's do, the encoder into a fresh buffer as into a recorder.
	s := spans.begin("serve.decode", op, id)
	var sr serve.SolveRequest
	err := json.NewDecoder(bytes.NewReader(req.body)).Decode(&sr)
	rp.decode = append(rp.decode, nsToMS(spans.end(s)))
	if err != nil {
		spans.end(op)
		return err
	}
	a, err := rp.resolve(&sr)
	if err != nil {
		spans.end(op)
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	before := rp.pool.Stats()
	s = spans.begin("pool.acquire", op, id)
	lease, err := rp.pool.AcquireCtx(ctx, a)
	acq := spans.end(s)
	rp.acquire = append(rp.acquire, nsToMS(acq))
	if err != nil {
		spans.end(op)
		return err
	}
	after := rp.pool.Stats()
	st := lease.Stats(a)
	kind := kindHit
	switch {
	case after.Misses+after.FactorReuses > before.Misses+before.FactorReuses:
		kind = kindMiss
	case st.DirtyBlocks > 0:
		kind = kindRefresh
		prof, _ := lease.Profile(basker.PhasePartial)
		res.partial = append(res.partial, prof.WallSeconds*1e3)
		res.dirty = append(res.dirty, float64(st.DirtyBlocks)/float64(st.BTFBlocks))
	}
	res.classes[kindNames[kind]]++
	res.acq[kind] = append(res.acq[kind], nsToMS(acq))
	if last, ok := rp.lastFallbacks[lease.Factorization]; ok {
		res.fallbacks += st.PivotFallbacks - last
	}
	rp.lastFallbacks[lease.Factorization] = st.PivotFallbacks
	s = spans.begin("trisolve.solve", op, id)
	err = lease.SolveCtx(ctx, sr.B)
	rp.solve = append(rp.solve, nsToMS(spans.end(s)))
	lease.Release()
	if err != nil {
		spans.end(op)
		return err
	}
	s = spans.begin("serve.encode", op, id)
	var out bytes.Buffer
	err = json.NewEncoder(&out).Encode(serve.SolveResponse{X: sr.B, ElapsedMS: nsToMS(spans.now() - spans.spans[op].Start)})
	rp.encode = append(rp.encode, nsToMS(spans.end(s)))
	spans.end(op)
	if err != nil {
		return err
	}
	// The validation screen the pool ran inside AcquireCtx, priced alone.
	s = spans.begin("sparse.validate", -1, id)
	err = a.Validate()
	res.validate = append(res.validate, nsToMS(spans.end(s)))
	if err != nil {
		return err
	}
	return rp.chk.check(req.a, req.anorm, sr.B, req.b)
}

// finish returns the replay's statistics: stage medians, and pool counter
// deltas since begin (the ServeHTTP requests on the same pool included).
func (rp *replay) finish() replayResult {
	res := rp.res
	ps0, ps1 := rp.ps0, rp.pool.Stats()
	res.decode, res.acquire, res.solve, res.encode = median(rp.decode), median(rp.acquire), median(rp.solve), median(rp.encode)
	acquires := (ps1.Hits + ps1.Misses + ps1.FactorReuses) - (ps0.Hits + ps0.Misses + ps0.FactorReuses)
	if acquires > 0 {
		res.hitRatio = float64(ps1.Hits-ps0.Hits) / float64(acquires)
	}
	res.evictions = ps1.Evictions - ps0.Evictions
	res.memEvictions = ps1.MemEvictions - ps0.MemEvictions
	res.queueWaits = ps1.QueueWaits - ps0.QueueWaits
	return res
}

// scale returns the share f of d.
func scale(d time.Duration, f float64) time.Duration { return time.Duration(float64(d) * f) }
