// Command bench is the repository's end-to-end benchmark. It starts the
// BoostHD serving stack the way cmd/boosthd-serve builds it, drives it
// with closed-loop loopback HTTP traffic from two keep-alive
// connections, checks every answer against reference labels computed
// before timing, and reports either the end-to-end metrics (untraced
// run) or the per-layer breakdown (traced run) of one traffic mix.
// README.md describes the workloads, the metrics and the layer map.
//
// Usage:
//
//	bench [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-out FILE]
//	bench -compare BASE.jsonl CHANGE.jsonl
//
// With -workload the last line of standard output is the run's JSON
// result. Without it every workload runs, untraced and then traced, each
// in a child process of its own.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

func main() {
	cfg := defaultConfig()
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloads, ", ")+" (empty = all, each in its own process)")
	flag.Int64Var(&cfg.seed, "seed", cfg.seed, "seed for the request pool, row order, tenant draw and delta perturbations")
	flag.Float64Var(&cfg.seconds, "seconds", cfg.seconds, "measured window in seconds (a traced run splits it between its untraced and traced halves)")
	trace := flag.Int("trace", 0, "0 = untraced run, end-to-end metrics; 1 = traced run, per-layer metrics")
	flag.StringVar(&cfg.out, "out", cfg.out, "append each run's result to this JSON-lines file (empty = none)")
	compare := flag.Bool("compare", false, "compare two result files: -compare BASE.jsonl CHANGE.jsonl")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fail(fmt.Errorf("-compare takes two result files"))
		}
		sp, err := loadSpec()
		if err != nil {
			fail(err)
		}
		ok, err := compareFiles(os.Stdout, sp, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fail(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fail(fmt.Errorf("-trace must be 0 or 1 (got %d)", *trace))
	}
	cfg.trace = *trace == 1
	if cfg.seconds <= 0 {
		fail(fmt.Errorf("-seconds must be positive (got %v)", cfg.seconds))
	}
	if cfg.workload == "" {
		if err := runAll(cfg); err != nil {
			fail(err)
		}
		return
	}
	ok, err := runOne(cfg, os.Stdout)
	if err != nil {
		fail(err)
	}
	if !ok {
		os.Exit(1)
	}
}

// runOne runs a single workload and prints its report, ending with the
// JSON result line. It reports false when an answer was wrong or a
// request failed.
func runOne(cfg config, w io.Writer) (bool, error) {
	b, err := prepare(cfg)
	if err != nil {
		return false, err
	}
	defer b.close()
	h := hostInfo()
	fmt.Fprintf(w, "host: %s, nproc %d, GOMAXPROCS %d, %s, commit %s; seed %d\n",
		h.CPU, h.NProc, h.GOMAXPROCS, h.Go, h.Commit, cfg.seed)
	res, err := b.run(w)
	if err != nil {
		return false, err
	}
	if cfg.out != "" {
		if err := appendRecord(cfg.out, record{Workload: cfg.workload, Trace: cfg.trace, Seed: cfg.seed, Host: h, result: res}); err != nil {
			return false, err
		}
		if len(b.spans) > 0 {
			if err := writeJSON(spansPath(cfg.out, cfg.workload), b.spans); err != nil {
				return false, err
			}
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%s\n", line)
	return res.Correct, nil
}

// runAll runs every workload, untraced then traced, each in a fresh
// child process so set-up time and peak memory are its own.
func runAll(cfg config) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var failed []string
	for _, wl := range workloads {
		for _, tr := range []string{"0", "1"} {
			cmd := exec.Command(exe, "-workload", wl, "-seed", strconv.FormatInt(cfg.seed, 10),
				"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", tr, "-out", cfg.out)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				failed = append(failed, fmt.Sprintf("%s (trace %s): %v", wl, tr, err))
			}
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("failed runs: %s", strings.Join(failed, "; "))
	}
	return nil
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line a single-workload run ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one run as stored in a -out file and read by -compare.
type record struct {
	Workload string `json:"workload"`
	Trace    bool   `json:"trace"`
	Seed     int64  `json:"seed"`
	Host     host   `json:"host"`
	result
}

// host identifies the machine and build a run was measured on.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func hostInfo() host {
	h := host{CPU: runtime.GOARCH, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Commit: "unknown"}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	// go build stamps the commit when it runs inside a git checkout.
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if dirty && h.Commit != "unknown" {
			h.Commit += "-dirty"
		}
	}
	return h
}

// peakRSSMiB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

func appendRecord(path string, r record) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("append %s: %w", path, err)
	}
	return f.Close()
}

// spansPath names the file a traced run's spans are written to, next to
// the -out file.
func spansPath(out, workload string) string {
	return strings.TrimSuffix(out, filepath.Ext(out)) + "-spans-" + workload + ".json"
}

func writeJSON(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
