package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	basker "repro"
	"repro/internal/matgen"
	"repro/serve"
)

const (
	// serveConns is how many client connections drive the server.
	serveConns = 2
	// openShare of --seconds runs the open-loop phase; the rest is the
	// closed-loop saturation phase.
	openShare = 0.7
	// satRate sizes the closed-loop streams: the saturation phase sends a
	// fixed stream of satRate requests per second of its share of the run,
	// about the rate two vCPUs sustain on this mix. A faster server ends
	// the phase early and a slower one runs up to satTimeFactor times its
	// share; ops_per_s is measured either way.
	satRate       = 250
	satTimeFactor = 3
	// generatorLateLimit voids an open-loop run whose generator sent its
	// 99th-percentile request later than this after it was due: several
	// median request latencies, far beyond timer wake-up jitter.
	generatorLateLimit = 20 * time.Millisecond
	// warmRequests is the closed-loop burst every set-up ends with.
	warmRequests = 200
	// rampRequests run back to back right before the measured saturation
	// phase and are not timed: after the low-rate open loop, the first
	// second at full load runs ~40% slower on two vCPUs.
	rampRequests = 250
	// allocRequests go straight to Server.ServeHTTP after the saturation
	// phase to count the server's allocations per request.
	allocRequests = 200
	// hitBodies and refreshBodies are the per-pattern rings of id-only and
	// id+values request bodies.
	hitBodies     = 4
	refreshBodies = 6
)

type reqKind int

const (
	kindHit     reqKind = iota // id only: solve against the registered values
	kindRefresh                // id + values: 1% clustered column change
	kindMiss                   // inline CSC of a never-seen pattern
	numKinds
)

var kindNames = [numKinds]string{"hit", "refresh", "miss"}

// serveTail: at the default 30 s run (2625 open-loop requests, 525 per
// window) p98 leaves 10 samples beyond it in each of 5 windows.
var serveTail = tailSpec{pct: 98, windows: 5}

// Structure seeds of the registered and the never-seen patterns. They do
// not follow --seed, so every run factors the same structures and only
// values, right-hand sides and the order of the mix vary with the seed.
// Never-seen pattern k of stream phase p has structure seed (p+1)<<24 + k.
const patternStructSeed = 300

// Stream phases. Each phase draws its requests from its own generator, so
// its streams can be built right before it runs, and its never-seen
// patterns differ from those of every other phase.
const (
	phaseOpen    = iota // set-up warm-up and the open loop
	phaseSat            // ramp, saturation and allocation pass
	phaseProfile        // the traced run
)

// request is one pre-generated /v1/solve call and the system its answer
// must solve.
type request struct {
	kind  reqKind
	body  []byte
	a     *basker.Matrix
	anorm float64
	b     []float64
}

// serveRig is a running server with registered patterns. The client side
// keeps only the pattern IDs: the registered matrices and the request
// streams are regenerated when a phase needs them.
type serveRig struct {
	ids    []string
	srv    *serve.Server
	hs     *httptest.Server
	client *http.Client
	url    string
	open   []*request // the open-loop stream, built during set-up
}

// newServerPool builds the pool with baskerserve's default flags:
// default shard count, Threads = GOMAXPROCS, input validation, a 10 s stall
// watchdog, metered pool locks.
func newServerPool(trace *basker.Tracer) *basker.ShardedPool {
	return basker.NewShardedPool(0, basker.PoolOptions{
		Options: basker.Options{
			Threads:        runtime.GOMAXPROCS(0),
			BigBlockMin:    64,
			StallTimeout:   10 * time.Second,
			ValidateInputs: true,
			Trace:          trace,
		},
		MeterLock: true,
	})
}

// newServerFront wraps a pool in baskerserve's default front end.
func newServerFront(pool *basker.ShardedPool) *serve.Server {
	return serve.NewServer(pool, serve.Options{MaxInFlight: 256, DefaultTimeout: 30 * time.Second})
}

// servePatterns generates the registered Xyce-class templates.
func servePatterns(sz sizes, seed int64) []*basker.Matrix {
	pats := make([]*basker.Matrix, sz.servePatterns)
	for i := range pats {
		pats[i] = xyceClass(sz.serveNBase+i*sz.serveNStep, patternStructSeed+int64(i), seed)
	}
	return pats
}

// xyceClass is a Xyce-class circuit of dimension n with the structure of
// structSeed and values re-stamped from seed.
func xyceClass(n int, structSeed, seed int64) *basker.Matrix {
	a := matgen.Circuit(matgen.CircuitParams{
		N: n, BTFPct: 21, Blocks: max(1, n/30), Core: matgen.CoreLadder,
		ExtraDensity: 0.4, Seed: structSeed,
	})
	return matgen.TransientStep(a, 1, seed)
}

// newServeRig starts a warmed-up server and builds the open-loop stream.
func newServeRig(sz sizes, seed int64, openN int) (*serveRig, error) {
	r, err := newServeRigWith(sz, seed, nil)
	if err != nil {
		return nil, err
	}
	gen, err := newStreamGen(sz, seed, phaseOpen, r.ids)
	if err == nil {
		warm := gen.stream(warmRequests)
		r.open = gen.stream(openN)
		err = gen.err
		if err == nil {
			err = r.warm(gen.pats, warm)
		}
	}
	if err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// warm leaves two idle factorizations per registered pattern, one for
// each connection that may hold it at once (otherwise the first seconds
// at saturation pay fresh factorizations of the largest patterns), then
// sends reqs back to back on both connections.
func (r *serveRig) warm(pats []*basker.Matrix, reqs []*request) error {
	pool := r.srv.Pool()
	for _, a := range pats {
		l1, err := pool.Acquire(a)
		if err != nil {
			return err
		}
		l2, err := pool.Acquire(a)
		if err != nil {
			l1.Release()
			return err
		}
		l1.Release()
		l2.Release()
	}
	res := r.closedLoopHTTP(reqs, time.Minute)
	if o := res.outcome(); o.failed > 0 || res.done < len(reqs) {
		return fmt.Errorf("warm-up: %d of %d requests failed: %v", o.failed, res.done, o.errs)
	}
	return nil
}

// newServeRigWith starts the server, with wrap (if non-nil) around its
// handler, and registers the patterns over HTTP.
func newServeRigWith(sz sizes, seed int64, wrap func(http.Handler) http.Handler) (*serveRig, error) {
	r := &serveRig{srv: newServerFront(newServerPool(nil))}
	var h http.Handler = r.srv
	if wrap != nil {
		h = wrap(h)
	}
	r.hs = httptest.NewServer(h)
	r.url = r.hs.URL + "/v1/solve"
	r.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns, DisableCompression: true,
	}}
	ids, err := register(servePatterns(sz, seed), func(blob []byte) (int, []byte, error) {
		return post(r.client, r.hs.URL+"/v1/matrices", blob, -1)
	})
	if err != nil {
		r.close()
		return nil, err
	}
	r.ids = ids
	return r, nil
}

// register sends each pattern as a warm /v1/matrices request through send
// and returns the pattern IDs the server assigned.
func register(pats []*basker.Matrix, send func(body []byte) (int, []byte, error)) ([]string, error) {
	var ids []string
	for _, a := range pats {
		blob, err := json.Marshal(serve.RegisterRequest{Matrix: matrixJSON(a), Warm: true})
		var (
			status int
			raw    []byte
			reg    serve.RegisterResponse
		)
		if err == nil {
			status, raw, err = send(blob)
		}
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d, body %.200s", status, raw)
		}
		if err == nil {
			err = json.Unmarshal(raw, &reg)
		}
		if err != nil {
			return nil, fmt.Errorf("register pattern: %w", err)
		}
		ids = append(ids, reg.ID)
	}
	return ids, nil
}

func (r *serveRig) close() {
	r.client.CloseIdleConnections()
	r.hs.Close()
}

func matrixJSON(a *basker.Matrix) *serve.MatrixJSON {
	return &serve.MatrixJSON{M: a.M, N: a.N, Colptr: a.Colptr, Rowidx: a.Rowidx, Values: a.Values}
}

// mixBlock is the request mix: every consecutive block of ten requests
// holds 7 id-only solves, 2 id+values refreshes and 1 inline never-seen
// pattern, in a seed-shuffled order. Stratifying keeps every window of a
// phase at the same composition, so a seed changes which bodies are sent
// and in what order, not how much work a window holds.
var mixBlock = [10]reqKind{kindHit, kindHit, kindHit, kindHit, kindHit, kindHit, kindHit, kindRefresh, kindRefresh, kindMiss}

// streamGen draws the requests of one stream phase.
type streamGen struct {
	sz       sizes
	seed     int64
	missBase int64 // structure seed of the phase's never-seen patterns
	rng      *rand.Rand
	shapes   *rand.Rand // never-seen pattern sizes, independent of the seed
	pats     []*basker.Matrix
	hits     [][]*request
	refs     [][]*request
	refPos   []int
	misses   int
	err      error
}

// newStreamGen regenerates the registered patterns (ids are the server's
// IDs for them) and the per-pattern rings of id-only and refresh bodies.
func newStreamGen(sz sizes, seed int64, phase int, ids []string) (*streamGen, error) {
	pats := servePatterns(sz, seed)
	missBase := int64(phase+1) << 24
	g := &streamGen{
		sz: sz, seed: seed, missBase: missBase, pats: pats,
		rng:    rand.New(rand.NewSource(seed + int64(phase)<<32 + 7)),
		shapes: rand.New(rand.NewSource(missBase)), refPos: make([]int, len(pats)),
	}
	for p, a := range pats {
		anorm := normInf(a)
		var hs, rs []*request
		for h := 0; h < hitBodies; h++ {
			b := randVec(g.rng, a.N)
			body, err := json.Marshal(serve.SolveRequest{ID: ids[p], B: b})
			if err != nil {
				return nil, err
			}
			hs = append(hs, &request{kind: kindHit, body: body, a: a, anorm: anorm, b: b})
		}
		for v := 0; v < refreshBodies; v++ {
			cols := matgen.ChangeSet(a.N, 0.01, seed+int64(100*p+v), true)
			ap := matgen.PerturbColumns(a, cols, v+1, seed)
			b := randVec(g.rng, a.N)
			body, err := json.Marshal(serve.SolveRequest{ID: ids[p], Values: ap.Values, B: b})
			if err != nil {
				return nil, err
			}
			rs = append(rs, &request{kind: kindRefresh, body: body, a: ap, anorm: normInf(ap), b: b})
		}
		g.hits = append(g.hits, hs)
		g.refs = append(g.refs, rs)
	}
	return g, nil
}

// stream returns the next n requests of the mix.
func (g *streamGen) stream(n int) []*request {
	out := make([]*request, 0, n)
	block := mixBlock
	for len(out) < n {
		g.rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, kind := range block {
			if len(out) == n {
				break
			}
			p := g.rng.Intn(len(g.hits))
			switch kind {
			case kindHit:
				out = append(out, g.hits[p][g.rng.Intn(hitBodies)])
			case kindRefresh:
				out = append(out, g.refs[p][g.refPos[p]%refreshBodies])
				g.refPos[p]++
			default:
				out = append(out, g.miss())
			}
		}
	}
	return out
}

// miss generates an inline Xyce-class system, in the registered size
// range, whose pattern no earlier request had.
func (g *streamGen) miss() *request {
	n := g.sz.missNMin + g.shapes.Intn(g.sz.missNMax-g.sz.missNMin+1)
	g.misses++
	a := xyceClass(n, g.missBase+int64(g.misses), g.seed)
	b := randVec(g.rng, n)
	body, err := json.Marshal(serve.SolveRequest{Matrix: matrixJSON(a), B: b})
	if err != nil && g.err == nil {
		g.err = err
	}
	return &request{kind: kindMiss, body: body, a: a, anorm: normInf(a), b: b}
}

// opHeader carries a request's index in its stream, so a handler wrapper
// can match its own timing to the client's.
const opHeader = "X-Bench-Op"

// post sends body and reads the whole response; op >= 0 is sent in
// opHeader.
func post(c *http.Client, url string, body []byte, op int) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if op >= 0 {
		req.Header.Set(opHeader, strconv.Itoa(op))
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, raw, err
}

// verify accepts an answer only if it is HTTP 200 and its x solves the
// request's system.
func verify(req *request, status int, raw []byte, chk *checker) error {
	if status != http.StatusOK {
		return fmt.Errorf("%s request: HTTP %d: %.200s", kindNames[req.kind], status, raw)
	}
	var resp serve.SolveResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return fmt.Errorf("%s request: decode response: %v", kindNames[req.kind], err)
	}
	if err := chk.check(req.a, req.anorm, resp.X, req.b); err != nil {
		return fmt.Errorf("%s request: %v", kindNames[req.kind], err)
	}
	return nil
}

// phaseResult is one serve phase's record. The per-request slices are
// indexed by request; each slot is written by the one sender that handled
// it.
type phaseResult struct {
	lat     []float64 // milliseconds
	doneAt  []float64 // closed loop: completion time since the phase started, s
	errs    []error
	done    int
	elapsed time.Duration
	late    []float64 // open loop: generator lateness per request, ms
	respKB  float64   // closed loop: mean response body size
}

func (p *phaseResult) outcome() outcome {
	o := outcome{attempted: p.done}
	for _, err := range p.errs[:p.done] {
		if err != nil {
			o.fail(err)
		}
	}
	return o
}

// openLoop sends reqs at a fixed arrival rate over serveConns connections
// and times each request from when it was due, so a stall also charges
// the requests queued behind it.
func (r *serveRig) openLoop(reqs []*request, rate float64) *phaseResult {
	res := &phaseResult{
		lat: make([]float64, len(reqs)), errs: make([]error, len(reqs)),
		late: make([]float64, len(reqs)), done: len(reqs),
	}
	type job struct {
		i   int
		due time.Time
	}
	queue := make(chan job, len(reqs)) // sized to the number of sends: the generator never blocks
	var wg sync.WaitGroup
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var chk checker
			for j := range queue {
				req := reqs[j.i]
				status, raw, err := post(r.client, r.url, req.body, j.i)
				res.lat[j.i] = float64(time.Since(j.due)) / 1e6
				if err == nil {
					err = verify(req, status, raw, &chk)
				}
				res.errs[j.i] = err
			}
		}()
	}
	start := time.Now().Add(10 * time.Millisecond)
	for i := range reqs {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		res.late[i] = float64(time.Since(due)) / 1e6
		queue <- job{i, due}
	}
	close(queue)
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// closedLoopHTTP drives reqs back to back over serveConns connections
// until d has elapsed or the stream is exhausted.
func (r *serveRig) closedLoopHTTP(reqs []*request, d time.Duration) *phaseResult {
	res := &phaseResult{lat: make([]float64, len(reqs)), doneAt: make([]float64, len(reqs)), errs: make([]error, len(reqs))}
	var next, respBytes atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var chk checker
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				req := reqs[i]
				t0 := time.Now()
				status, raw, err := post(r.client, r.url, req.body, i)
				res.lat[i] = float64(time.Since(t0)) / 1e6
				res.doneAt[i] = time.Since(start).Seconds()
				respBytes.Add(int64(len(raw)))
				if err == nil {
					err = verify(req, status, raw, &chk)
				}
				res.errs[i] = err
			}
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	res.done = min(int(next.Load()), len(reqs))
	res.lat = res.lat[:res.done]
	res.doneAt = res.doneAt[:res.done]
	res.respKB = float64(respBytes.Load()) / 1024 / float64(max(res.done, 1))
	return res
}

// rates returns requests completed per second in each of rateWindows
// equal slices of the phase; ops_per_s is their median.
func (p *phaseResult) rates() []float64 {
	slice := p.elapsed.Seconds() / rateWindows
	per := make([]float64, rateWindows)
	for _, t := range p.doneAt {
		per[min(int(t/slice), rateWindows-1)]++
	}
	for i := range per {
		per[i] /= slice
	}
	return per
}

// serveStreams sizes the phases of a run of the given length: the
// open-loop request count, the saturation stream and its time limit.
func serveStreams(sz sizes, secs float64) (openN, satN int, satLimit time.Duration) {
	openN = max(1, int(sz.openRate*secs*openShare))
	satS := secs * (1 - openShare)
	return openN, max(1, int(satS*satRate)), seconds(satS * satTimeFactor)
}

func runServe(cfg config) (outcome, error) {
	openN, satN, satLimit := serveStreams(cfg.sz, cfg.seconds)
	rig, setups, err := timeSetups(cfg.sz.setupReps, func() (*serveRig, error) {
		return newServeRig(cfg.sz, cfg.seed, openN)
	}, (*serveRig).close)
	if err != nil {
		return outcome{}, err
	}
	defer rig.close()

	open := rig.openLoop(rig.open, cfg.sz.openRate)
	mix := map[string]int{}
	for _, req := range rig.open {
		mix[kindNames[req.kind]]++
	}
	// The server's live heap after the fixed-size open-loop phase (the
	// saturation phase's pace, and so its cache growth, follows the
	// host's speed). A real client lives in another process, so the heap
	// is read while no request stream or client-side matrix is reachable:
	// the later phases' streams are built after it.
	rig.open = nil
	heap := liveHeapMB()

	gen, err := newStreamGen(cfg.sz, cfg.seed, phaseSat, rig.ids)
	if err != nil {
		return outcome{}, err
	}
	ramp, sat, allocReqs := gen.stream(rampRequests), gen.stream(satN), gen.stream(allocRequests)
	if gen.err != nil {
		return outcome{}, gen.err
	}
	rampRes := rig.closedLoopHTTP(ramp, satLimit)
	satRes := rig.closedLoopHTTP(sat, satLimit)
	allocPerOp, allocOut := rig.allocPass(allocReqs)

	o := open.outcome()
	o.merge(rampRes.outcome())
	o.merge(satRes.outcome())
	o.merge(allocOut)
	lateP99 := percentile(open.late, 99)
	if time.Duration(lateP99*1e6) > generatorLateLimit {
		o.invalid = fmt.Sprintf("open-loop generator fell behind: p99 lateness %.2f ms > %v", lateP99, generatorLateLimit)
	}
	ps := rig.srv.Pool().Stats()
	o.params = map[string]any{
		"patterns": len(rig.ids), "pattern_n": []int{cfg.sz.serveNBase, cfg.sz.serveNBase + (cfg.sz.servePatterns-1)*cfg.sz.serveNStep},
		"miss_n":    []int{cfg.sz.missNMin, cfg.sz.missNMax},
		"open_rate": cfg.sz.openRate, "open_requests": openN, "connections": serveConns,
		"shards": rig.srv.Pool().NumShards(), "threads": runtime.GOMAXPROCS(0),
		"gen_late_p50_ms": percentile(open.late, 50), "gen_late_p99_ms": lateP99,
		"gen_late_max_ms": percentile(open.late, 100),
		"sat_stream":      len(sat), "sat_requests": satRes.done, "sat_seconds": satRes.elapsed.Seconds(),
		"sat_p50_ms":     median(satRes.lat),
		"alloc_requests": len(allocReqs),
		"pool_hits":      ps.Hits, "pool_misses": ps.Misses, "pool_cached_patterns": ps.CachedSymbolics,
		"pool_cached_mb": float64(ps.BytesCached) / (1 << 20),
		"open_mix":       mix,
	}
	rates := satRes.rates()
	o.params["sat_window_rates"] = rates
	o.params["sat_mean_rate"] = float64(satRes.done) / satRes.elapsed.Seconds()
	endToEnd(&o, setups, open.lat, serveTail, median(rates), heap, allocPerOp)
	return o, nil
}

// allocPass sends reqs one at a time straight to Server.ServeHTTP and
// returns the bytes allocated per request. Each request object is built
// before, and each answer checked after, the allocation counter is read,
// so the figure is the handler's own allocation (the net/http transport's
// per-connection work is not in it).
func (r *serveRig) allocPass(reqs []*request) (float64, outcome) {
	var (
		o      outcome
		chk    checker
		ms     runtime.MemStats
		total  uint64
		w      = newBufWriter()
		before uint64
	)
	for _, req := range reqs {
		hr := httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(req.body))
		hr.Header.Set("Content-Type", "application/json")
		w.reset()
		runtime.ReadMemStats(&ms)
		before = ms.TotalAlloc
		r.srv.ServeHTTP(w, hr)
		runtime.ReadMemStats(&ms)
		total += ms.TotalAlloc - before
		o.attempted++
		if err := verify(req, w.code, w.body.Bytes(), &chk); err != nil {
			o.fail(err)
		}
	}
	return float64(total) / float64(max(len(reqs), 1)), o
}

// bufWriter is a reusable http.ResponseWriter: its header map and body
// buffer keep their storage from one request to the next.
type bufWriter struct {
	hdr  http.Header
	code int
	body bytes.Buffer
}

func newBufWriter() *bufWriter {
	w := &bufWriter{hdr: http.Header{}}
	w.body.Grow(1 << 20)
	return w
}

func (w *bufWriter) reset() {
	clear(w.hdr)
	w.code = 0
	w.body.Reset()
}

func (w *bufWriter) Header() http.Header { return w.hdr }

func (w *bufWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *bufWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.body.Write(p)
}
