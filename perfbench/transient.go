package main

import (
	"math/rand"
	"runtime"
	"time"

	basker "repro"
	"repro/internal/matgen"
)

// transientTail: at the default 30 s run (≈5000 operations, ≈310 per
// window) p95 leaves ≈15 samples beyond it in each of 16 windows. Windows
// of about two seconds keep CPU steal by neighbours on a shared host, which
// comes in bursts of seconds and doubles a 2-thread step, out of most
// windows; with 8 windows at p98, ten runs spread by 0.39 of their median.
var transientTail = tailSpec{pct: 95, windows: 16}

// rateWindows is how many windows ops_per_s takes its median over.
const rateWindows = 8

// transientInputs is a ring of same-pattern steps of the Xyce1-replica
// transient sequence with one right-hand side per step.
type transientInputs struct {
	steps []*basker.Matrix
	norms []float64
	rhs   [][]float64
}

func genTransient(sz sizes, seed int64) *transientInputs {
	base := matgen.XyceSequenceBase(sz.xyceScale)
	rng := rand.New(rand.NewSource(seed))
	in := &transientInputs{}
	for k := 0; k < sz.ring; k++ {
		a := matgen.TransientStep(base, k+1, seed)
		in.steps = append(in.steps, a)
		in.norms = append(in.norms, normInf(a))
		in.rhs = append(in.rhs, randVec(rng, a.N))
	}
	return in
}

func randVec(rng *rand.Rand, n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	return b
}

// transientRig is one simulator-like caller: a factorization refreshed and
// solved step after step. Consecutive steps differ in every value, so each
// RefactorAuto refreshes every block.
type transientRig struct {
	in   *transientInputs
	f    *basker.Factorization
	x    []float64
	next int
	chk  checker
	last basker.RefineResult
}

func newTransientRig(sz sizes, seed int64, opts basker.Options) (*transientRig, error) {
	in := genTransient(sz, seed)
	f, err := basker.New(opts).Factor(in.steps[0])
	if err != nil {
		return nil, err
	}
	r := &transientRig{in: in, f: f, x: make([]float64, in.steps[0].N), next: 1}
	// Warm-up: one pass over the ring fills the workspace pools.
	for i := 0; i < len(in.steps); i++ {
		if _, err := r.op(i); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// step picks the next ring step.
func (r *transientRig) step() int {
	k := r.next % len(r.in.steps)
	r.next++
	return k
}

// op is one transient step: RefactorAuto then a refined solve.
func (r *transientRig) op(int) (time.Duration, error) {
	k := r.step()
	a := r.in.steps[k]
	copy(r.x, r.in.rhs[k])
	t0 := time.Now()
	err := r.f.RefactorAuto(a)
	if err == nil {
		r.last, err = r.f.SolveRefined(a, r.x, 2)
	}
	d := time.Since(t0)
	if err != nil {
		return d, err
	}
	return d, r.chk.check(a, r.in.norms[k], r.x, r.in.rhs[k])
}

func runTransient(cfg config) (outcome, error) {
	rig, setups, err := timeSetups(cfg.sz.setupReps, func() (*transientRig, error) {
		return newTransientRig(cfg.sz, cfg.seed, basker.Options{Threads: 2})
	}, func(*transientRig) {})
	if err != nil {
		return outcome{}, err
	}
	loop := closedLoop(seconds(cfg.seconds), len(rig.in.steps), 0, rig.op)
	heap := liveHeapMB()
	runtime.KeepAlive(rig)
	o := loop.outcome()
	a := rig.in.steps[0]
	o.params = map[string]any{
		"n": a.N, "nnz": a.Nnz(), "ring": len(rig.in.steps), "threads": 2,
		"btf_blocks": rig.f.NumBlocks(), "refine_iters": 2,
	}
	endToEnd(&o, setups, loop.lat, transientTail, windowedRate(loop.lat, rateWindows, len(rig.in.steps)), heap, loop.allocPerOp(rateWindows))
	return o, nil
}

// seconds converts a float second count to a Duration.
func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
