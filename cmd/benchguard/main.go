// Command benchguard runs the tier-1 micro-benchmarks and fails when any
// of them regresses by more than the allowed tolerance against the
// committed baseline (BENCH_baseline.json at the repo root).
//
// Usage:
//
//	benchguard [-update] [-baseline path] [-tolerance frac] [-count N]
//
// With -update the baseline file is rewritten from the current run
// instead of being checked; commit the result alongside the change that
// moved the numbers.
//
// Because absolute ns/op depends on the host, the baseline also records a
// calibration measurement: a fixed XOR/popcount spin over a 64 KiB buffer.
// At check time the same spin is re-measured and every baseline figure is
// scaled by the ratio of the two, so the guard keeps working when the
// baseline machine and the CI runner differ in raw speed. The tolerance
// (default 25%, override with -tolerance or BENCHGUARD_TOLERANCE) absorbs
// what first-order scaling cannot.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/bits"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// suite is one `go test -bench` invocation to guard.
type suite struct {
	pkg       string  // package path relative to the repo root
	bench     string  // -bench regex
	benchtime string  // -benchtime value
	count     int     // -count value; best (minimum) iteration wins
	tolScale  float64 // multiplier on the base tolerance (1 = micro-bench)
}

// keyPkg is the package part of a baseline key: the path without the
// leading "./", with the root package spelled out.
func (s suite) keyPkg() string {
	if s.pkg == "." {
		return "boosthd"
	}
	return strings.TrimPrefix(s.pkg, "./")
}

// suites lists the tier-1 benchmarks. Root-level table benchmarks run a
// full quick-config experiment per iteration, so only the serving-engine
// ablation is guarded there, at a looser tolerance; the per-kernel
// figures come from the infer and encoding micro-benchmarks.
var suites = []suite{
	{
		pkg:       "./internal/encoding",
		bench:     "^(BenchmarkEncodeNonlinear|BenchmarkEncodeRFF|BenchmarkEncodeLinear|BenchmarkEncodeBatchParallel|BenchmarkEncodeBatchRemat|BenchmarkEncodeBitsStored|BenchmarkEncodeBitsRemat)$",
		benchtime: "200ms",
		count:     5,
		tolScale:  1,
	},
	{
		pkg:       "./internal/infer",
		bench:     "^(BenchmarkPredictBatchFloat|BenchmarkPredictBatchBinary|BenchmarkScoreEncodedFloat|BenchmarkScoreEncodedBinary)$",
		benchtime: "200ms",
		count:     5,
		tolScale:  1,
	},
	{
		pkg:       "./internal/serve",
		bench:     "^(BenchmarkTenantResolve|BenchmarkTenantResolveParallel)$",
		benchtime: "200ms",
		count:     5,
		tolScale:  1,
	},
	{
		pkg:       "./internal/obs",
		bench:     "^(BenchmarkHistogramObserve|BenchmarkSpanStamp)$",
		benchtime: "200ms",
		count:     5,
		tolScale:  1,
	},
	{
		pkg:       ".",
		bench:     "^BenchmarkInferBackends$",
		benchtime: "1x",
		count:     2,
		tolScale:  2,
	},
}

// baseline is the on-disk schema of BENCH_baseline.json.
type baseline struct {
	Note          string             `json:"note"`
	Go            string             `json:"go"`
	CalibrationNs float64            `json:"calibration_ns"`
	Benchmarks    map[string]float64 `json:"benchmarks"` // "<pkg>.<Benchmark>" -> ns/op
}

// calibrate measures the host's raw integer throughput with a fixed
// XOR/popcount spin — the same word-parallel work the scoring kernels do —
// and returns the best wall time over 25 repetitions (~50 ms total, wide
// enough to dodge a transient busy slice on a shared runner).
func calibrate() float64 {
	buf := make([]uint64, 8192) // 64 KiB
	for i := range buf {
		buf[i] = 0x9E3779B97F4A7C15 * uint64(i+1)
	}
	best := math.MaxFloat64
	for rep := 0; rep < 25; rep++ {
		start := time.Now()
		var sink int
		for pass := 0; pass < 200; pass++ {
			acc := uint64(pass)
			for _, w := range buf {
				sink += bits.OnesCount64(w ^ acc)
				acc = acc<<1 | acc>>63
			}
		}
		if sink == -1 {
			panic("unreachable")
		}
		if ns := float64(time.Since(start).Nanoseconds()); ns < best {
			best = ns
		}
	}
	return best
}

// benchLine matches `BenchmarkName-8   123   4567 ns/op ...`.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op`)

// runSuite executes one guarded `go test -bench` invocation and returns
// the best ns/op seen for each benchmark (keyed "<pkg>.<Benchmark>").
func runSuite(s suite) (map[string]float64, error) {
	args := []string{
		"test", "-run", "^$",
		"-bench", s.bench,
		"-benchtime", s.benchtime,
		"-count", strconv.Itoa(s.count),
		s.pkg,
	}
	fmt.Printf("benchguard: go %s\n", strings.Join(args, " "))
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go test -bench %s in %s: %w", s.bench, s.pkg, err)
	}
	got := map[string]float64{}
	for _, line := range strings.Split(string(out), "\n") {
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		key := s.keyPkg() + "." + m[1]
		if prev, ok := got[key]; !ok || ns < prev {
			got[key] = ns
		}
	}
	if len(got) == 0 {
		return nil, fmt.Errorf("no benchmarks matched %q in %s", s.bench, s.pkg)
	}
	return got, nil
}

func tolScaleFor(key string) float64 {
	best, scale := 0, 1.0
	for _, s := range suites {
		if p := s.keyPkg() + "."; strings.HasPrefix(key, p) && len(p) > best {
			best, scale = len(p), s.tolScale
		}
	}
	return scale
}

func main() {
	update := flag.Bool("update", false, "rewrite the baseline from this run instead of checking")
	baselinePath := flag.String("baseline", "BENCH_baseline.json", "baseline file to check or update")
	tolerance := flag.Float64("tolerance", 0, "allowed fractional regression (default 0.25, or BENCHGUARD_TOLERANCE)")
	flag.Parse()

	tol := *tolerance
	if tol == 0 {
		tol = 0.25
		if env := os.Getenv("BENCHGUARD_TOLERANCE"); env != "" {
			v, err := strconv.ParseFloat(env, 64)
			if err != nil || v <= 0 {
				fmt.Fprintf(os.Stderr, "benchguard: bad BENCHGUARD_TOLERANCE %q\n", env)
				os.Exit(2)
			}
			tol = v
		}
	}

	cal := calibrate()
	current := map[string]float64{}
	for _, s := range suites {
		got, err := runSuite(s)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchguard: %v\n", err)
			os.Exit(2)
		}
		for k, v := range got {
			current[k] = v
		}
	}
	// A second calibration after the suites dodges process-start
	// contention; the faster of the two is the host's real speed.
	if c := calibrate(); c < cal {
		cal = c
	}
	fmt.Printf("benchguard: calibration %.0f ns on %s\n", cal, runtime.Version())

	if *update {
		b := baseline{
			Note:          "tier-1 benchmark baseline; regenerate with `go run ./cmd/benchguard -update`",
			Go:            runtime.Version(),
			CalibrationNs: cal,
			Benchmarks:    current,
		}
		data, err := json.MarshalIndent(&b, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchguard: %v\n", err)
			os.Exit(2)
		}
		if err := os.WriteFile(*baselinePath, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchguard: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("benchguard: wrote %d baselines to %s\n", len(current), *baselinePath)
		return
	}

	data, err := os.ReadFile(*baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: %v (run with -update to create it)\n", err)
		os.Exit(2)
	}
	var base baseline
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: parse %s: %v\n", *baselinePath, err)
		os.Exit(2)
	}
	if base.CalibrationNs <= 0 || len(base.Benchmarks) == 0 {
		fmt.Fprintf(os.Stderr, "benchguard: %s is empty or missing calibration; regenerate with -update\n", *baselinePath)
		os.Exit(2)
	}

	scale := cal / base.CalibrationNs
	fmt.Printf("benchguard: host speed scale %.2fx vs baseline machine, tolerance %.0f%%\n", scale, tol*100)

	keys := make([]string, 0, len(current))
	for k := range current {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	failed := 0
	for _, k := range keys {
		cur := current[k]
		want, ok := base.Benchmarks[k]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchguard: FAIL %s: not in baseline (run -update to add it)\n", k)
			failed++
			continue
		}
		allowed := want * scale * (1 + tol*tolScaleFor(k))
		ratio := cur / (want * scale)
		verdict := "ok"
		if cur > allowed {
			verdict = "FAIL"
			failed++
		}
		fmt.Printf("benchguard: %-4s %s: %.0f ns/op vs %.0f baseline (%.2fx)\n", verdict, k, cur, want*scale, ratio)
	}
	for k := range base.Benchmarks {
		if _, ok := current[k]; !ok {
			fmt.Fprintf(os.Stderr, "benchguard: FAIL baseline entry %s no longer runs (stale baseline? run -update)\n", k)
			failed++
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "benchguard: %d benchmark(s) regressed beyond the %.0f%% tolerance\n", failed, tol*100)
		os.Exit(1)
	}
	fmt.Printf("benchguard: all %d benchmarks within tolerance\n", len(keys))
}
