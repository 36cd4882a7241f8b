package boosthd_test

// bench_test.go regenerates every table and figure of the paper's
// evaluation under `go test -bench`. Each benchmark runs its experiment
// once per b.N iteration in the quick configuration and prints the
// resulting table on the first iteration, so `go test -bench=. -benchmem`
// both measures the harness and emits the reproduced artifacts.
//
// Paper-scale runs (10 repetitions, full cohorts, Dtotal = 10K) are
// available through `go run ./cmd/benchtables -full`.

import (
	"io"
	"os"
	"sync"
	"testing"

	"boosthd/internal/experiments"
)

// benchOptions is the shared quick configuration for benchmark runs.
func benchOptions() experiments.Options {
	o := experiments.Defaults()
	o.Runs = 1
	return o
}

// printOnce renders a table to stdout only on the first benchmark
// iteration so -benchtime doesn't flood the output.
var printedMu sync.Mutex
var printed = map[string]bool{}

func printOnce(b *testing.B, name string, tables ...*experiments.Table) {
	printedMu.Lock()
	defer printedMu.Unlock()
	var w io.Writer = os.Stdout
	if printed[name] {
		w = io.Discard
	}
	printed[name] = true
	for _, t := range tables {
		if err := t.Render(w); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableI(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		t, err := experiments.RunTableI(opt)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, "table1", t)
	}
}

func BenchmarkTableII(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		t, err := experiments.RunTableII(opt)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, "table2", t)
	}
}

func BenchmarkTableIII(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		t, err := experiments.RunTableIII(opt)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, "table3", t)
	}
}

func BenchmarkFigure2(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		t, err := experiments.RunFigure2(opt)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, "fig2", t)
	}
}

func BenchmarkFigure3(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		ta, tb, err := experiments.RunFigure3(opt)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, "fig3", ta, tb)
	}
}

func BenchmarkFigure4(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		t, err := experiments.RunFigure4(opt)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, "fig4", t)
	}
}

func BenchmarkFigure5(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		t, err := experiments.RunFigure5(opt)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, "fig5", t)
	}
}

func BenchmarkFigure6(b *testing.B) {
	opt := benchOptions()
	opt.Runs = 3
	for i := 0; i < b.N; i++ {
		t, err := experiments.RunFigure6(opt)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, "fig6", t)
	}
}

func BenchmarkFigure7(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		t, err := experiments.RunFigure7(opt)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, "fig7", t)
	}
}

func BenchmarkFigure8(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		t, err := experiments.RunFigure8(opt)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, "fig8", t)
	}
}

// BenchmarkInferBackends renders the serving-engine ablation: float
// cosine vs packed-binary Hamming accuracy, end-to-end and scoring-stage
// latency, and class-memory footprint.
func BenchmarkInferBackends(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		t, err := experiments.RunInferBench(opt)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, "infer", t)
	}
}
