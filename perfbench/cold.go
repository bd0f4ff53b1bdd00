package main

import (
	"math/rand"
	"runtime"
	"time"

	basker "repro"
	"repro/internal/matgen"
)

// coldTail: at the default 30 s run (22 suite cycles, 484 operations)
// p97.5 leaves 12 samples beyond it, all of them G2_Circuit factorizations
// — the percentile sits inside the heaviest matrix's cluster, not on the
// edge between two. One window: the suite is the unit of repetition.
var coldTail = tailSpec{pct: 97.5, windows: 1}

// coldInputs is the Table I suite, values re-stamped from the seed.
type coldInputs struct {
	names []string
	mats  []*basker.Matrix
	norms []float64
	rhs   [][]float64
}

func genCold(sz sizes, seed int64) *coldInputs {
	rng := rand.New(rand.NewSource(seed))
	in := &coldInputs{}
	for _, m := range matgen.TableISuite(sz.suiteScale) {
		a := matgen.TransientStep(m.Gen(), 1, seed)
		in.names = append(in.names, m.Name)
		in.mats = append(in.mats, a)
		in.norms = append(in.norms, normInf(a))
		in.rhs = append(in.rhs, randVec(rng, a.N))
	}
	return in
}

// coldRig answers one-shot systems: every operation analyzes, factors and
// solves a matrix it has never factored before, cycling the suite in a
// fixed order.
type coldRig struct {
	in   *coldInputs
	opts basker.Options
	x    []float64
	next int
	chk  checker
	last *basker.Factorization // keeps the newest factorization live for heap_mb
}

func newColdRig(sz sizes, seed int64, opts basker.Options) (*coldRig, error) {
	in := genCold(sz, seed)
	maxN := 0
	for _, a := range in.mats {
		maxN = max(maxN, a.N)
	}
	r := &coldRig{in: in, opts: opts, x: make([]float64, maxN)}
	for i := range in.mats {
		if _, err := r.op(i); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func (r *coldRig) step() int {
	k := r.next % len(r.in.mats)
	r.next++
	return k
}

// op factors and solves the next suite matrix from scratch.
func (r *coldRig) op(int) (time.Duration, error) {
	k := r.step()
	a := r.in.mats[k]
	x := r.x[:a.N]
	copy(x, r.in.rhs[k])
	t0 := time.Now()
	f, err := basker.New(r.opts).Factor(a)
	if err == nil {
		err = f.Solve(x)
	}
	d := time.Since(t0)
	if err != nil {
		return d, err
	}
	r.last = f
	return d, r.chk.check(a, r.in.norms[k], x, r.in.rhs[k])
}

func runCold(cfg config) (outcome, error) {
	rig, setups, err := timeSetups(cfg.sz.setupReps, func() (*coldRig, error) {
		return newColdRig(cfg.sz, cfg.seed, basker.Options{Threads: 2})
	}, func(*coldRig) {})
	if err != nil {
		return outcome{}, err
	}
	loop := closedLoop(seconds(cfg.seconds), len(rig.in.mats), 0, rig.op)
	heap := liveHeapMB()
	runtime.KeepAlive(rig)
	o := loop.outcome()
	perMatrix := map[string]float64{}
	for k, name := range rig.in.names {
		var xs []float64
		for i := k; i < len(loop.lat); i += len(rig.in.names) {
			xs = append(xs, loop.lat[i])
		}
		perMatrix[name] = median(xs)
	}
	o.params = map[string]any{"matrices": rig.in.names, "threads": 2, "cycles": loop.attempted / len(rig.in.mats),
		"matrix_p50_ms": perMatrix}
	endToEnd(&o, setups, loop.lat, coldTail, windowedRate(loop.lat, rateWindows, len(rig.in.mats)), heap, loop.allocPerOp(rateWindows))
	return o, nil
}
