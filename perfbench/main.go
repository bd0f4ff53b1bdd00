// Command perfbench is the repository benchmark: it drives the solver from
// outside through its public entry points on generated inputs, checks
// every answer, and prints the end-to-end metrics of one workload — or,
// with -trace 1, the per-layer metrics of a traced profile run.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload transient --seed 1 --seconds 20 --trace 0
//
// Workloads:
//
//	transient  Xyce1-replica refactor→solve sequence, one closed-loop caller
//	cold       one-shot Factor+Solve over the 22-matrix Table I suite
//	serve      HTTP front end over loopback: open-loop then saturation phase
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Any wrong answer or failed
// operation makes the command exit non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

// sizes are the input dimensions of every workload. Tests shrink them;
// the command always runs defaultSizes.
type sizes struct {
	xyceScale     float64 // transient base: matgen.XyceSequenceBase(xyceScale)
	ring          int     // transient steps cycled by the closed loop
	suiteScale    float64 // cold: matgen.TableISuite(suiteScale)
	servePatterns int     // serve: registered patterns
	serveNBase    int     // serve: pattern i has n = serveNBase + i·serveNStep
	serveNStep    int
	missNMin      int // serve: never-seen inline patterns have n in [missNMin, missNMax]
	missNMax      int
	openRate      float64 // serve: open-loop arrival rate, requests per second
	setupReps     int     // set-ups per run; setup_s is their median
}

var defaultSizes = sizes{
	xyceScale:     4,
	ring:          16,
	suiteScale:    1,
	servePatterns: 8,
	serveNBase:    1500,
	serveNStep:    250,
	missNMin:      1500,
	missNMax:      3250,
	openRate:      125,
	setupReps:     3,
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string
	sz       sizes
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type namedMetric struct {
	name string
	metric
}

// outcome is what a workload run (or the traced profile) produces.
type outcome struct {
	attempted, failed int
	metrics           []namedMetric
	params            map[string]any
	// errs holds the first few failure messages for the log.
	errs []string
	// invalid, when set, voids the run: its numbers are not reported.
	invalid string
}

func (o *outcome) add(name, unit string, v float64) {
	o.metrics = append(o.metrics, namedMetric{name, metric{v, unit}})
}

// fail counts one failed operation.
func (o *outcome) fail(err error) {
	o.failed++
	if len(o.errs) < 5 {
		o.errs = append(o.errs, err.Error())
	}
}

// merge folds another outcome's counts and failures into o.
func (o *outcome) merge(p outcome) {
	o.attempted += p.attempted
	o.failed += p.failed
	for _, e := range p.errs {
		if len(o.errs) < 5 {
			o.errs = append(o.errs, e)
		}
	}
	if o.invalid == "" {
		o.invalid = p.invalid
	}
}

var workloads = map[string]func(cfg config) (outcome, error){
	"transient": runTransient,
	"cold":      runCold,
	"serve":     runServe,
}

func main() {
	cfg := config{sz: defaultSizes}
	flag.StringVar(&cfg.workload, "workload", "", "transient, cold or serve")
	flag.Int64Var(&cfg.seed, "seed", 1, "input generation seed")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "measured seconds per run")
	traceFlag := flag.Int("trace", 0, "1 runs the traced per-layer profile instead of the end-to-end run")
	flag.StringVar(&cfg.outDir, "out", filepath.Join(".bench_build", "perfbench"), "directory for the span log of traced runs")
	flag.Parse()
	cfg.trace = *traceFlag == 1
	if _, err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run executes one workload (or the traced profile), writes the report to
// w and returns the result line it printed.
func run(cfg config, w io.Writer) (result, error) {
	var res result
	wl, ok := workloads[cfg.workload]
	if !ok {
		return res, fmt.Errorf("unknown workload %q (want transient, cold or serve)", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return res, fmt.Errorf("--seconds must be positive")
	}
	var (
		out outcome
		err error
	)
	if cfg.trace {
		out, err = runProfile(cfg)
	} else {
		out, err = wl(cfg)
	}
	if err != nil {
		return res, err
	}
	metaLine, err := json.Marshal(metadata(cfg, out.params))
	if err != nil {
		return res, err
	}
	fmt.Fprintf(w, "# meta %s\n", metaLine)
	for _, e := range out.errs {
		logf("failed op: %s", e)
	}
	if out.invalid != "" {
		return res, fmt.Errorf("run invalid, numbers withheld: %s", out.invalid)
	}
	failFrac := 0.0
	if out.attempted > 0 {
		failFrac = float64(out.failed) / float64(out.attempted)
	}
	fmt.Fprintf(w, "# %-28s %14s  %s\n", "metric", "value", "unit")
	for _, m := range out.metrics {
		fmt.Fprintf(w, "# %-28s %14.6g  %s\n", m.name, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "# %-28s %14.6g  %s (%d of %d ops)\n", "fail_frac", failFrac, "ratio", out.failed, out.attempted)
	res = result{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metric{},
	}
	for _, m := range out.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return res, fmt.Errorf("metric %s is %v", m.name, m.Value)
		}
		if _, dup := res.Metrics[m.name]; dup {
			return res, fmt.Errorf("metric %s reported twice", m.name)
		}
		res.Metrics[m.name] = m.metric
	}
	line, err := json.Marshal(res)
	if err != nil {
		return res, err
	}
	fmt.Fprintln(w, string(line))
	if !res.Correct {
		return res, fmt.Errorf("%d of %d operations failed their check", out.failed, out.attempted)
	}
	return res, nil
}

// metadata records what a reader needs to reproduce or compare a result.
func metadata(cfg config, params map[string]any) map[string]any {
	commit := ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	if commit == "" {
		commit = "unknown"
	}
	return map[string]any{
		"workload":    cfg.workload,
		"trace":       cfg.trace,
		"seed":        cfg.seed,
		"seconds":     cfg.seconds,
		"host_cpus":   runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go_version":  runtime.Version(),
		"commit":      commit,
		"peak_rss_mb": peakRSSMB(),
		"params":      params,
	}
}

// opLoop accumulates a closed loop's per-operation record.
type opLoop struct {
	lat       []float64 // milliseconds, one per attempted operation
	attempted int
	failed    int
	errs      []string
	unit      int
	// allocAt[k] is the process's cumulative allocation before operation
	// k·unit (and, last, after the loop).
	allocAt []uint64
}

// closedLoop runs op back to back until d has elapsed and the number of
// operations is a multiple of unit (so a loop over a cycle of unequal
// inputs always covers whole cycles), or until maxOps operations when
// maxOps > 0. op returns the time of the measured call alone (checks
// outside it are the benchmark's own work) and any failure.
func closedLoop(d time.Duration, unit, maxOps int, op func(i int) (time.Duration, error)) opLoop {
	var ms runtime.MemStats
	l := opLoop{lat: make([]float64, 0, 1<<14), unit: unit}
	start := time.Now()
	for i := 0; ; i++ {
		if i%unit == 0 {
			runtime.ReadMemStats(&ms)
			l.allocAt = append(l.allocAt, ms.TotalAlloc)
			if time.Since(start) >= d || (maxOps > 0 && i >= maxOps) {
				break
			}
		}
		t, err := op(i)
		l.attempted++
		l.lat = append(l.lat, float64(t)/1e6)
		if err != nil {
			l.failed++
			if len(l.errs) < 5 {
				l.errs = append(l.errs, err.Error())
			}
		}
	}
	return l
}

// allocPerOp is the median over at most n windows of whole units of the
// bytes allocated per operation. Allocation is mostly a fixed cost per
// operation, but a pooled workspace the scheduler strands on another P
// is now and then allocated afresh; the median keeps those strays from
// setting the figure.
func (l opLoop) allocPerOp(n int) float64 {
	per := make([]float64, len(l.allocAt)-1)
	for k := range per {
		per[k] = float64(l.allocAt[k+1] - l.allocAt[k])
	}
	var rates []float64
	for _, w := range windows(per, n, 1) {
		rates = append(rates, mean(w)/float64(l.unit))
	}
	return median(rates)
}

func (l opLoop) outcome() outcome {
	return outcome{attempted: l.attempted, failed: l.failed, errs: l.errs}
}

// liveHeapMB collects garbage and reports the live heap in MiB.
func liveHeapMB() float64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// endToEnd appends the end-to-end metrics every workload reports. lat
// (operation order) feeds op_p50_ms and, through tail, op_tail_ms.
func endToEnd(o *outcome, setups []float64, lat []float64, tail tailSpec, opsPerS, heapMB, allocPerOp float64) {
	o.add("setup_s", "s", median(setups))
	o.add("op_p50_ms", "ms", median(lat))
	o.add("op_tail_ms", "ms", tail.of(lat))
	o.add("ops_per_s", "1/s", opsPerS)
	o.add("heap_mb", "MiB", heapMB)
	o.add("alloc_kb_per_op", "KiB", allocPerOp/1024)
	o.params["tail_percentile"] = tail.pct
	// The highest percentile this run's window size would support; it
	// differs from tail_percentile when the host runs far faster or slower
	// than the one the percentile was fixed on.
	o.params["tail_percentile_supported"] = tailPercentile(len(lat) / tail.windows)
	o.params["tail_windows"] = tail.windows
	o.params["tail_samples"] = len(lat)
	o.params["tail_min_samples_beyond"] = tail.minBeyond(lat)
	o.params["setup_s_all"] = setups
}

// timeSetups runs setup reps times, keeping the last result, and returns
// every set-up's wall time in seconds. Each discarded result is torn
// down and released before the next set-up starts.
func timeSetups[T any](reps int, setup func() (T, error), teardown func(T)) (T, []float64, error) {
	var (
		last, zero T
		secs       []float64
	)
	for r := 0; r < reps; r++ {
		if r > 0 {
			teardown(last)
			last = zero
		}
		runtime.GC()
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return last, nil, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		last = v
	}
	return last, secs, nil
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return -1
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// logf writes a progress note to standard error.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+strings.TrimSuffix(format, "\n")+"\n", args...)
}
