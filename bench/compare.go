package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// spec is the part of BENCHMARK.json the benchmark reads: the workload
// list and each metric's unit, direction and regression bound.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadSpec reads BENCHMARK.json from the repository root, whether the
// benchmark runs from there or from its own directory.
func loadSpec() (*spec, error) {
	for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		b, err := os.ReadFile(p)
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, err
		}
		var s spec
		if err := json.Unmarshal(b, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &s, nil
	}
	return nil, fmt.Errorf("BENCHMARK.json not found in . or ..")
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	for line := 1; sc.Scan(); line++ {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// Verdicts of one metric on one workload.
const (
	vBetter     = "better"
	vSame       = "same"
	vWorse      = "worse"
	vUnresolved = "unresolved"
)

// verdict compares the change's runs with the baseline's runs of one
// metric. Worse: the change's median is worse than the baseline's by
// more than bound (a share of the baseline median). Unresolved: the
// run-to-run spread of either side exceeds the bound and the change's
// runs do not all read better than every baseline run. Better: every
// change run reads better, or the median improved by more than bound.
func verdict(base, change []float64, higherBetter bool, bound float64) string {
	mb, mc := median(base), median(change)
	worsening := ratio(mc-mb, math.Abs(mb)) // positive = worse for lower-is-better
	lo, hi := minMax(base)
	clo, chi := minMax(change)
	allBetter := chi < lo
	if higherBetter {
		worsening = -worsening
		allBetter = clo > hi
	}
	switch {
	case max(spread(base), spread(change)) > bound && !allBetter:
		return vUnresolved
	case worsening > bound:
		return vWorse
	case allBetter || -worsening > bound:
		return vBetter
	}
	return vSame
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}

// compareFiles applies BENCHMARK.json's bounds to every end-to-end
// metric of every workload present in both result files and prints one
// row per workload. It reports false when any pair is worse or
// unresolved.
func compareFiles(w io.Writer, sp *spec, basePath, changePath string) (bool, error) {
	base, err := readRecords(basePath)
	if err != nil {
		return false, err
	}
	change, err := readRecords(changePath)
	if err != nil {
		return false, err
	}
	values := func(rs []record, wl, name string) []float64 {
		var v []float64
		for _, r := range rs {
			if m, ok := r.Metrics[name]; ok && r.Workload == wl && !r.Trace {
				v = append(v, m.Value)
			}
		}
		return v
	}
	ok := true
	fmt.Fprintf(w, "%-15s %-11s %s\n", "workload", "verdict", "details")
	for _, wl := range workloads {
		counts := map[string]int{}
		var notes []string
		runs := ""
		for _, m := range sp.EndToEnd {
			a, b := values(base, wl, m.Name), values(change, wl, m.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			runs = fmt.Sprintf("%d vs %d runs", len(a), len(b))
			v := verdict(a, b, m.Better == "higher", m.Bound)
			counts[v]++
			if v != vSame {
				ma, mb := median(a), median(b)
				notes = append(notes, fmt.Sprintf("%s %s %.4g -> %.4g %s (%+.1f%%, bound %.0f%%, spread %.1f%%/%.1f%%)",
					v, m.Name, ma, mb, m.Unit, 100*ratio(mb-ma, math.Abs(ma)), 100*m.Bound, 100*spread(a), 100*spread(b)))
			}
		}
		if runs == "" {
			continue
		}
		row := vSame
		for _, v := range []string{vBetter, vUnresolved, vWorse} {
			if counts[v] > 0 {
				row = v
			}
		}
		ok = ok && counts[vWorse] == 0 && counts[vUnresolved] == 0
		notes = append(notes, fmt.Sprintf("%d same; %s", counts[vSame], runs))
		fmt.Fprintf(w, "%-15s %-11s %s\n", wl, row, strings.Join(notes, "; "))
	}
	return ok, nil
}
