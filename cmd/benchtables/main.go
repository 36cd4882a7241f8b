// Command benchtables regenerates every table and figure of the paper's
// evaluation as text, using the synthetic dataset substrate.
//
// Usage:
//
//	benchtables [-exp all|table1|table2|table3|fig2|fig3|fig4|fig5|fig6|fig7|fig8|infer|drift|reliability|ecc]
//	            [-full] [-runs N] [-seed N]
//
// By default experiments run in the quick configuration (reduced dims and
// cohorts, minutes total); -full switches to the paper-scale setup.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"boosthd/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: all, table1, table2, table3, fig2..fig8, infer, drift, reliability, ecc")
	full := flag.Bool("full", false, "paper-scale configuration (slow)")
	runs := flag.Int("runs", 0, "override number of runs per cell")
	seed := flag.Int64("seed", 7, "base random seed")
	flag.Parse()

	opt := experiments.Defaults()
	if *full {
		opt = experiments.PaperScale()
	}
	if *runs > 0 {
		opt.Runs = *runs
	}
	opt.Seed = *seed

	type runner struct {
		name string
		run  func() error
	}
	show := func(t *experiments.Table, err error) error {
		if err != nil {
			return err
		}
		fmt.Println()
		return t.Render(os.Stdout)
	}
	runners := []runner{
		{"table1", func() error { t, err := experiments.RunTableI(opt); return show(t, err) }},
		{"table2", func() error { t, err := experiments.RunTableII(opt); return show(t, err) }},
		{"table3", func() error { t, err := experiments.RunTableIII(opt); return show(t, err) }},
		{"fig2", func() error { t, err := experiments.RunFigure2(opt); return show(t, err) }},
		{"fig3", func() error {
			a, b, err := experiments.RunFigure3(opt)
			if err != nil {
				return err
			}
			if err := show(a, nil); err != nil {
				return err
			}
			return show(b, nil)
		}},
		{"fig4", func() error { t, err := experiments.RunFigure4(opt); return show(t, err) }},
		{"fig5", func() error { t, err := experiments.RunFigure5(opt); return show(t, err) }},
		{"fig6", func() error { t, err := experiments.RunFigure6(opt); return show(t, err) }},
		{"fig7", func() error { t, err := experiments.RunFigure7(opt); return show(t, err) }},
		{"fig8", func() error { t, err := experiments.RunFigure8(opt); return show(t, err) }},
		{"infer", func() error {
			t, err := experiments.RunInferBench(opt)
			if err := show(t, err); err != nil {
				return err
			}
			a, b, err := experiments.RunInferSweep(opt)
			if err != nil {
				return err
			}
			if err := show(a, nil); err != nil {
				return err
			}
			return show(b, nil)
		}},
		{"drift", func() error { t, err := experiments.RunDrift(opt); return show(t, err) }},
		{"reliability", func() error { t, err := experiments.RunReliability(opt); return show(t, err) }},
		{"ecc", func() error { t, err := experiments.RunECC(opt); return show(t, err) }},
	}

	want := strings.ToLower(*exp)
	matched := false
	for _, r := range runners {
		if want != "all" && want != r.name {
			continue
		}
		matched = true
		start := time.Now()
		if err := r.run(); err != nil {
			fmt.Fprintf(os.Stderr, "benchtables: %s: %v\n", r.name, err)
			os.Exit(1)
		}
		fmt.Printf("[%s done in %v]\n", r.name, time.Since(start).Round(time.Millisecond))
	}
	if !matched {
		fmt.Fprintf(os.Stderr, "benchtables: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}
