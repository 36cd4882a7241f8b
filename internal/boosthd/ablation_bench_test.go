package boosthd

import (
	"testing"

	"boosthd/internal/signal"
	"boosthd/internal/synth"
)

// ablationData builds one normalized subject-split workload shared by the
// ablation benchmarks. The design choices DESIGN.md calls out — vote vs
// score aggregation, single-scale vs multi-scale encoders, number of weak
// learners — are each isolated below; every benchmark reports test
// accuracy through b.ReportMetric so `go test -bench Ablation` doubles as
// an ablation table.
func ablationData(b *testing.B) (trainX [][]float64, trainY []int, testX [][]float64, testY []int) {
	b.Helper()
	cfg := synth.WESADConfig()
	cfg.NumSubjects = 8
	cfg.SamplesPerState = 768
	cfg.Separability = 0.55
	d, subjects, err := synth.Build(cfg)
	if err != nil {
		b.Fatal(err)
	}
	train, test, _, err := synth.SubjectSplit(d, subjects, 0.3, 7)
	if err != nil {
		b.Fatal(err)
	}
	for i, r := range train.X {
		train.X[i] = append([]float64(nil), r...)
	}
	for i, r := range test.X {
		test.X[i] = append([]float64(nil), r...)
	}
	norm, err := signal.FitNormalizer(train.X, signal.ZScore)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := norm.Apply(train.X); err != nil {
		b.Fatal(err)
	}
	if _, err := norm.Apply(test.X); err != nil {
		b.Fatal(err)
	}
	return train.X, train.Y, test.X, test.Y
}

func runAblation(b *testing.B, mutate func(*Config)) {
	b.Helper()
	trainX, trainY, testX, testY := ablationData(b)
	var acc float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig(4000, 10, 3)
		cfg.Epochs = 10
		mutate(&cfg)
		m, err := Train(trainX, trainY, cfg)
		if err != nil {
			b.Fatal(err)
		}
		a, err := m.Evaluate(testX, testY)
		if err != nil {
			b.Fatal(err)
		}
		acc = a
	}
	b.ReportMetric(acc*100, "acc%")
}

func BenchmarkAblationVoteAggregation(b *testing.B) {
	runAblation(b, func(c *Config) { c.Aggregation = Vote })
}

func BenchmarkAblationScoreAggregation(b *testing.B) {
	runAblation(b, func(c *Config) { c.Aggregation = Score })
}

func BenchmarkAblationSingleScaleEncoder(b *testing.B) {
	runAblation(b, func(c *Config) { c.GammaSpread = 0 })
}

func BenchmarkAblationMultiScaleEncoder(b *testing.B) {
	runAblation(b, func(c *Config) { c.GammaSpread = 4 })
}

func BenchmarkAblationNoBootstrap(b *testing.B) {
	runAblation(b, func(c *Config) { c.Bootstrap = false })
}

func BenchmarkAblationNL1(b *testing.B) {
	runAblation(b, func(c *Config) { c.NumLearners = 1 })
}

func BenchmarkAblationNL25(b *testing.B) {
	runAblation(b, func(c *Config) { c.NumLearners = 25 })
}

// BenchmarkTrain measures ensemble training cost at the paper's
// configuration on the shared workload.
func BenchmarkTrain(b *testing.B) {
	trainX, trainY, _, _ := ablationData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig(4000, 10, 3)
		cfg.Epochs = 10
		if _, err := Train(trainX, trainY, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredict measures single-sample inference latency: one-row
// batches, the shape of a lone request.
func BenchmarkPredict(b *testing.B) {
	trainX, trainY, testX, _ := ablationData(b)
	cfg := DefaultConfig(4000, 10, 3)
	cfg.Epochs = 5
	m, err := Train(trainX, trainY, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(testX)
		if _, err := m.PredictBatch(testX[j : j+1]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictBatch measures the parallel inference path the paper
// highlights ("parallelization becomes feasible during the inference
// phase") at the paper's reference configuration Dtotal=10000, NL=10.
func BenchmarkPredictBatch(b *testing.B) {
	trainX, trainY, testX, _ := ablationData(b)
	cfg := DefaultConfig(10000, 10, 3)
	cfg.Epochs = 5
	m, err := Train(trainX, trainY, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.PredictBatch(testX); err != nil {
			b.Fatal(err)
		}
	}
}
