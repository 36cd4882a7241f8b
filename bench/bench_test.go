package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	lat := make([]time.Duration, 1000)
	for i := range lat {
		lat[i] = time.Duration(i+1) * time.Millisecond
	}
	for _, c := range []struct {
		p    float64
		want time.Duration
	}{{50, 500 * time.Millisecond}, {99, 990 * time.Millisecond}, {99.9, 999 * time.Millisecond},
		{100, time.Second}, {0.01, time.Millisecond}} {
		if got := percentile(lat, c.p); got != c.want {
			t.Errorf("p%g of 1..1000 ms = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 99); got != 0 {
		t.Errorf("p99 of no samples = %v, want 0", got)
	}
}

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{100000, 99.99}, {10000, 99.9}, {1000, 99}, {999, 95}, {200, 95}, {100, 90}, {20, 50}, {19, 0}, {0, 0}} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
		if p := highestPercentile(c.n); p > 0 && beyond(c.n, p) < minBeyond {
			t.Errorf("n=%d: p%g has %d samples beyond it, want >= %d", c.n, p, beyond(c.n, p), minBeyond)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] and
	// statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75].
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25}, {[]float64{4, 3, 2, 1}, 1.25, 3.75}} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{4, 3, 2, 1}); math.Abs(got-2.5/2.5) > 1e-12 {
		t.Errorf("spread = %g, want 1", got)
	}
}

func TestResidual(t *testing.T) {
	// Single-row path: every stage measured; the residual is what the
	// span total leaves unattributed.
	b := breakdown{client: 1000, handler: 900, admission: 20, queue: 5, encode: 800, score: 2, aggregate: 1, respond: 10}
	if got := b.transport(); got != 100 {
		t.Errorf("transport = %g, want 100", got)
	}
	if got := b.residual(); got != 62 {
		t.Errorf("residual = %g, want 62", got)
	}
	// Batch path: no span, so decode and respond stay in the residual,
	// which then equals http.other_us.
	b = breakdown{client: 14000, handler: 13800, encode: 13000, score: 40}
	if got, other := b.residual(), b.handler-b.encode-b.score; got != 760 || got != other {
		t.Errorf("batch residual = %g, want 760 = handler - encode - score (%g)", got, other)
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102}
	noisy := []float64{100, 60, 140, 100, 80}
	for _, c := range []struct {
		name         string
		base, change []float64
		higher       bool
		bound        float64
		want         string
	}{
		{"within bound", steady, []float64{101, 100, 99, 102, 100}, true, 0.10, vSame},
		{"rate dropped", steady, []float64{85, 86, 84, 85, 87}, true, 0.10, vWorse},
		{"latency rose", []float64{1, 1.01, 0.99, 1, 1.02}, []float64{1.2, 1.21, 1.19, 1.2, 1.22}, false, 0.10, vWorse},
		{"latency halved", []float64{1, 1.01, 0.99, 1, 1.02}, []float64{0.5, 0.51, 0.49, 0.5, 0.52}, false, 0.10, vBetter},
		{"small but every run better", steady, []float64{103, 104, 103, 105, 104}, true, 0.10, vBetter},
		{"spread wider than bound", noisy, []float64{95, 70, 130, 90, 100}, true, 0.10, vUnresolved},
		{"noisy but every run better", noisy, []float64{150, 160, 170, 155, 165}, true, 0.10, vBetter},
		{"noisy and worse", steady, []float64{50, 90, 20, 60, 40}, true, 0.10, vUnresolved},
	} {
		if got := verdict(c.base, c.change, c.higher, c.bound); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	sp := &spec{EndToEnd: []specMetric{
		{Name: "predict_rps", Unit: "req/s", Better: "higher", Bound: 0.1},
		{Name: "predict_p50_ms", Unit: "ms", Better: "lower", Bound: 0.1},
	}}
	dir := t.TempDir()
	write := func(name string, rps, p50 []float64) string {
		path := dir + "/" + name
		for i := range rps {
			r := record{Workload: predictBase, Seed: int64(i), result: result{Correct: true, Attempted: 1,
				Metrics: map[string]metric{"predict_rps": {rps[i], "req/s"}, "predict_p50_ms": {p50[i], "ms"}}}}
			if err := appendRecord(path, r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := write("base.jsonl", []float64{100, 101, 99}, []float64{1, 1, 1})
	same := write("same.jsonl", []float64{100, 99, 101}, []float64{1, 1.01, 0.99})
	slow := write("slow.jsonl", []float64{80, 81, 79}, []float64{1.3, 1.3, 1.3})
	var out bytes.Buffer
	if ok, err := compareFiles(&out, sp, base, same); err != nil || !ok {
		t.Fatalf("same runs: ok=%v err=%v\n%s", ok, err, out.String())
	}
	out.Reset()
	ok, err := compareFiles(&out, sp, base, slow)
	if err != nil || ok {
		t.Fatalf("slower runs: ok=%v err=%v\n%s", ok, err, out.String())
	}
	if !strings.Contains(out.String(), "worse predict_rps") || !strings.Contains(out.String(), "worse predict_p50_ms") {
		t.Errorf("compare output does not name both regressions:\n%s", out.String())
	}
}

func TestWorkloadsMatchSpec(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range sp.Workloads {
		names = append(names, w.Name)
	}
	if fmt.Sprint(names) != fmt.Sprint(workloads) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloads)
	}
}

// smokeConfig shrinks a workload to about a second of traffic on a small
// model, 64 tenants and a one-round script.
func smokeConfig(t *testing.T, workload string, trace bool) config {
	cfg := defaultConfig()
	cfg.workload, cfg.trace = workload, trace
	cfg.seconds, cfg.warmup = 1, 200*time.Millisecond
	cfg.subjects, cfg.samplesPerState = 6, 512
	cfg.dim, cfg.learners, cfg.epochs = 2000, 4, 2
	cfg.poolRows, cfg.tenants, cfg.observesPerRound, cfg.setups = 256, 64, 64, 2
	cfg.out, cfg.workDir = "", t.TempDir()
	return cfg
}

// TestSmoke runs every workload untraced and traced and checks that each
// prints exactly the metrics BENCHMARK.json names, with their units, and
// that no request failed.
func TestSmoke(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", wl, trace), func(t *testing.T) {
				var out bytes.Buffer
				ok, err := runOne(smokeConfig(t, wl, trace), &out)
				if err != nil {
					t.Fatalf("%v\n%s", err, out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not a result: %v\n%s", err, out.String())
				}
				if !ok || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("ok=%v correct=%v failed=%d of %d\n%s", ok, res.Correct, res.Failed, res.Attempted, out.String())
				}
				want := sp.EndToEnd
				if trace {
					want = sp.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics in the result, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, found := res.Metrics[m.Name]
					if !found || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", m.Name, got, found, m.Unit)
					}
					if !strings.Contains(out.String(), "  "+m.Name+" ") {
						t.Errorf("metric %s not printed", m.Name)
					}
				}
			})
		}
	}
}

// TestCorruptedReferenceFails checks the correctness gate: a reference
// label that disagrees with the served model must fail the run.
func TestCorruptedReferenceFails(t *testing.T) {
	cfg := smokeConfig(t, predictBase, false)
	cfg.setups = 1
	b, err := prepare(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	b.predicts[0].want[0] = (b.predicts[0].want[0] + 1) % b.classes
	res, err := b.run(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Fatalf("run with a corrupted reference passed: %+v", res)
	}
}
