package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 50}, {5, 50}, {20, 50}, {40, 75}, {100, 90}, {200, 95},
		{484, 97.5}, {600, 98}, {1100, 99}, {2700, 99.5}, {4000, 99.5}, {11000, 99.9},
	} {
		got := tailPercentile(c.n)
		if got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if c.n >= 20 && beyond(c.n, got) < minTailSamples {
			t.Errorf("n=%d: p%v leaves %d samples beyond it, want >= %d", c.n, got, beyond(c.n, got), minTailSamples)
		}
	}
	// The chosen rung is the highest that qualifies: the next one up
	// leaves fewer than minTailSamples beyond it.
	for n := 20; n < 20000; n += 37 {
		p := tailPercentile(n)
		for i, q := range tailLadder {
			if q == p && i > 0 && beyond(n, tailLadder[i-1]) >= minTailSamples {
				t.Fatalf("n=%d: p%v chosen but p%v also leaves enough samples", n, p, tailLadder[i-1])
			}
		}
	}
}

// Each workload's tail percentile is the highest that leaves enough
// samples beyond it in every window at the default run length's expected
// sample count.
func TestWorkloadTailsAtDefaultLength(t *testing.T) {
	for _, c := range []struct {
		name    string
		tail    tailSpec
		samples int
	}{
		{"transient", transientTail, 5000},
		{"cold", coldTail, 22 * 22},
		{"serve", serveTail, int(defaultSizes.openRate * 30 * openShare)},
	} {
		lat := make([]float64, c.samples)
		if b := c.tail.minBeyond(lat); b < minTailSamples {
			t.Errorf("%s: p%v leaves %d samples beyond it in some window", c.name, c.tail.pct, b)
		}
		if p := tailPercentile(c.samples / c.tail.windows); p != c.tail.pct {
			t.Errorf("%s: %d samples per window support p%v, workload uses p%v", c.name, c.samples/c.tail.windows, p, c.tail.pct)
		}
	}
}

func TestWindows(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	ws := windows(xs, 4, 10)
	if len(ws) != 3 || len(ws[0]) != 30 || len(ws[2]) != 40 {
		t.Errorf("windows(100, 4, unit 10): %d windows, first %d, last %d; want 30,30,40", len(ws), len(ws[0]), len(ws[len(ws)-1]))
	}
	if ws := windows(xs, 4, 1); len(ws) != 4 || len(ws[3]) != 25 {
		t.Errorf("windows(100, 4, unit 1): %d windows, want 4 of 25", len(ws))
	}
	total := 0
	for _, w := range ws {
		total += len(w)
		if len(w)%10 != 0 {
			t.Errorf("window of %d is not a whole number of units", len(w))
		}
	}
	if total != len(xs) {
		t.Errorf("windows cover %d of %d samples", total, len(xs))
	}
	if got := windows(xs[:5], 3, 10); len(got) != 1 || len(got[0]) != 5 {
		t.Errorf("short input: %d windows", len(got))
	}
	// One slow window moves the windowed tail far less than the whole-run
	// percentile.
	lat := make([]float64, 1000)
	for i := range lat {
		lat[i] = 1
		if i >= 900 {
			lat[i] = 50
		}
	}
	if got := (tailSpec{pct: 95, windows: 10}).of(lat); got != 1 {
		t.Errorf("windowed p95 with one slow window = %v, want 1", got)
	}
	if got := percentile(lat, 95); got != 50 {
		t.Errorf("whole-run p95 = %v, want 50", got)
	}
	// Ten operations of 2 ms per window: 500 operations per busy second.
	two := make([]float64, 40)
	for i := range two {
		two[i] = 2
	}
	if got := windowedRate(two, 4, 1); got != 500 {
		t.Errorf("windowedRate = %v, want 500", got)
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted input
	}
	if got := percentile(xs, 99); got != 99 {
		t.Errorf("p99 of 1..100 = %v, want 99", got)
	}
	if got := percentile(xs, 100); got != 100 {
		t.Errorf("p100 of 1..100 = %v, want 100", got)
	}
	if got := median(xs); got != 50.5 {
		t.Errorf("median of 1..100 = %v, want 50.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of {3,1,2} = %v, want 2", got)
	}
	if xs[0] != 100 {
		t.Error("percentile sorted its input in place")
	}
	if beyond(100, 99) != 1 || beyond(100, 90) != 10 {
		t.Errorf("beyond(100, 99/90) = %d/%d, want 1/10", beyond(100, 99), beyond(100, 90))
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "serve.op", Start: 0, End: 100, Parent: -1},
		{Name: "pool.acquire", Start: 10, End: 30, Parent: 0},
		{Name: "pool.acquire", Start: 20, End: 50, Parent: 0},    // overlaps its sibling
		{Name: "trisolve.solve", Start: 90, End: 120, Parent: 0}, // runs past its parent
		{Name: "gp.kernel", Start: 12, End: 18, Parent: 1},
		{Name: "core.open", Start: 5, End: -1, Parent: -1}, // never closed
	}
	got := selfTimes(spans)
	want := map[string]int64{
		"serve":    100 - (40 + 10), // children cover [10,50] and [90,100]
		"pool":     (20 - 6) + 30,   // the first acquire's kernel child is not its own time
		"trisolve": 30,
		"gp":       6,
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self time of %s = %d, want %d", k, got[k], v)
		}
	}
	if _, ok := got["core"]; ok {
		t.Error("an unclosed span contributed self time")
	}
	var total int64
	for _, v := range got {
		total += v
	}
	// The layers sum to the root's 100 ns plus the 10 ns the sibling
	// acquires overlap and the 20 ns the solve ran past the root.
	if total != 130 {
		t.Errorf("self times sum to %d, want 130", total)
	}
}

func TestSpanLogNilIsDisabled(t *testing.T) {
	var l *spanLog
	if i := l.begin("x.y", -1, 1); i != -1 || l.end(i) != 0 || l.now() != 0 {
		t.Error("nil span log recorded something")
	}
}

// tinySizes shrink every workload so a smoke run takes about a second.
var tinySizes = sizes{
	xyceScale:     0.5,
	ring:          4,
	suiteScale:    0.1,
	servePatterns: 2,
	serveNBase:    300,
	serveNStep:    100,
	missNMin:      300,
	missNMax:      400,
	openRate:      100,
	setupReps:     2,
}

// benchmarkSpec reads the metric names BENCHMARK.json promises.
func benchmarkSpec(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

func TestSmokeWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs take a few seconds")
	}
	endToEnd, perLayer := benchmarkSpec(t)
	for _, c := range []struct {
		workload string
		trace    bool
		want     []string
	}{
		{"transient", false, endToEnd},
		{"cold", false, endToEnd},
		{"serve", false, endToEnd},
		{"transient", true, perLayer},
	} {
		cfg := config{workload: c.workload, seed: 3, seconds: 0.5, trace: c.trace, outDir: t.TempDir(), sz: tinySizes}
		if c.trace {
			cfg.seconds = 2
		}
		res, err := run(cfg, io.Discard)
		if err != nil {
			t.Fatalf("%s (trace %v): %v", c.workload, c.trace, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s (trace %v): correct %v, %d of %d failed", c.workload, c.trace, res.Correct, res.Failed, res.Attempted)
		}
		if len(res.Metrics) != len(c.want) {
			t.Errorf("%s (trace %v): %d metrics, BENCHMARK.json lists %d", c.workload, c.trace, len(res.Metrics), len(c.want))
		}
		for _, name := range c.want {
			if _, ok := res.Metrics[name]; !ok {
				t.Errorf("%s (trace %v): metric %s missing", c.workload, c.trace, name)
			}
		}
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	if _, err := run(config{workload: "nope", seconds: 1, sz: tinySizes}, io.Discard); err == nil {
		t.Error("unknown workload did not fail")
	}
}
