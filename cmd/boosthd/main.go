// Command boosthd trains and evaluates models on the synthetic healthcare
// datasets from the command line.
//
// Usage:
//
//	boosthd -dataset wesad|nurse|stresspredict
//	        -model boosthd|onlinehd|adaboost|rf|xgboost|svm|dnn
//	        [-backend float|binary] [-projection stored|seeded]
//	        [-dim 10000] [-nl 10] [-epochs 20] [-runs 3] [-seed 7]
//	        [-subjects N] [-samples N]
//	        [-save model.bhde] [-save-binary model.bhdb]
//
// -backend selects the BoostHD serving engine: float cosine scoring, or
// the packed-binary backend that quantizes the trained model to bit
// vectors and scores by Hamming similarity.
//
// -projection selects the encoder's projection representation: "stored"
// is the materialized Gaussian matrix, "seeded" the encoder that derives
// Rademacher projection rows from a counter stream — seed-sized
// checkpoints and a resident state about 14x smaller. Seeded checkpoints
// use a newer wire framing that older builds reject loudly.
//
// -save writes the last run's trained BoostHD ensemble as a float
// checkpoint; -save-binary writes its quantized binary snapshot. Both
// feed cmd/boosthd-serve.
//
// Each run draws a fresh subject-wise split, normalizes features with
// training statistics, trains the requested model, and reports accuracy
// with training and per-sample inference times.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"boosthd/internal/boosthd"
	"boosthd/internal/dataset"
	"boosthd/internal/encoding"
	"boosthd/internal/ensemble"
	"boosthd/internal/forest"
	"boosthd/internal/gbdt"
	"boosthd/internal/infer"
	"boosthd/internal/nn"
	"boosthd/internal/onlinehd"
	"boosthd/internal/signal"
	"boosthd/internal/stats"
	"boosthd/internal/svm"
	"boosthd/internal/synth"
)

func main() {
	datasetName := flag.String("dataset", "wesad", "wesad, nurse, or stresspredict")
	modelName := flag.String("model", "boosthd", "boosthd, onlinehd, adaboost, rf, xgboost, svm, dnn")
	backend := flag.String("backend", "float", "BoostHD serving backend: float or binary")
	projection := flag.String("projection", "stored", "BoostHD encoder projection: stored or seeded")
	dim := flag.Int("dim", 10000, "HDC total dimension Dtotal")
	nl := flag.Int("nl", 10, "BoostHD weak learners NL")
	epochs := flag.Int("epochs", 20, "HDC training epochs")
	runs := flag.Int("runs", 3, "number of subject-split runs")
	seed := flag.Int64("seed", 7, "base random seed")
	subjects := flag.Int("subjects", 0, "override subject count (0 = dataset default)")
	samples := flag.Int("samples", 0, "override raw samples per state (0 = dataset default)")
	savePath := flag.String("save", "", "write the trained BoostHD ensemble checkpoint here (boosthd only)")
	saveBinaryPath := flag.String("save-binary", "", "write the quantized binary snapshot here (boosthd only)")
	flag.Parse()

	switch strings.ToLower(*backend) {
	case "", "float", "binary", "packed-binary":
	default:
		fail(fmt.Errorf("unknown backend %q (want float or binary)", *backend))
	}
	proj, err := encoding.ParseProjection(strings.ToLower(*projection))
	if err != nil {
		fail(err)
	}
	if proj != encoding.ProjStored && !strings.EqualFold(*modelName, "boosthd") {
		fail(fmt.Errorf("-projection %s applies only to -model boosthd", *projection))
	}
	if !strings.EqualFold(*backend, "float") && *backend != "" && !strings.EqualFold(*modelName, "boosthd") {
		fail(fmt.Errorf("-backend %s applies only to -model boosthd", *backend))
	}
	if (*savePath != "" || *saveBinaryPath != "") && !strings.EqualFold(*modelName, "boosthd") {
		fail(fmt.Errorf("-save/-save-binary apply only to -model boosthd"))
	}
	if *runs < 1 {
		fail(fmt.Errorf("-runs must be >= 1, got %d", *runs))
	}
	cfg, err := datasetConfig(*datasetName)
	if err != nil {
		fail(err)
	}
	if *subjects > 0 {
		cfg.NumSubjects = *subjects
	}
	if *samples > 0 {
		cfg.SamplesPerState = *samples
	}
	data, roster, err := synth.Build(cfg)
	if err != nil {
		fail(err)
	}
	fmt.Printf("dataset %s: %d windows x %d features, %d subjects, %d classes\n",
		cfg.Name, data.Len(), data.NumFeatures(), len(roster), data.NumClasses)

	var accs, trainTimes, inferTimes []float64
	var lastTrained *boosthd.Model
	for r := 0; r < *runs; r++ {
		splitSeed := *seed + int64(r)
		train, test, _, err := synth.SubjectSplit(data, roster, 0.3, splitSeed)
		if err != nil {
			fail(err)
		}
		for i, row := range train.X {
			train.X[i] = append([]float64(nil), row...)
		}
		for i, row := range test.X {
			test.X[i] = append([]float64(nil), row...)
		}
		norm, err := signal.FitNormalizer(train.X, signal.ZScore)
		if err != nil {
			fail(err)
		}
		if _, err := norm.Apply(train.X); err != nil {
			fail(err)
		}
		if _, err := norm.Apply(test.X); err != nil {
			fail(err)
		}

		start := time.Now()
		predict, trained, err := trainModel(*modelName, *backend, proj, train, *dim, *nl, *epochs, splitSeed)
		if err != nil {
			fail(err)
		}
		trainDur := time.Since(start)
		lastTrained = trained

		start = time.Now()
		pred, err := predict(test.X)
		if err != nil {
			fail(err)
		}
		inferPer := time.Since(start).Seconds() / float64(test.Len())

		acc, err := stats.Accuracy(pred, test.Y)
		if err != nil {
			fail(err)
		}
		accs = append(accs, acc*100)
		trainTimes = append(trainTimes, trainDur.Seconds())
		inferTimes = append(inferTimes, inferPer*1e6)
		fmt.Printf("run %d: accuracy %.2f%%  train %.2fs  inference %.1f us/sample\n",
			r, acc*100, trainDur.Seconds(), inferPer*1e6)
	}
	fmt.Printf("\n%s on %s over %d runs: accuracy %s  train %.2fs  inference %.1f us/sample\n",
		*modelName, cfg.Name, *runs, stats.Summarize(accs).String(),
		stats.Mean(trainTimes), stats.Mean(inferTimes))

	if *savePath != "" {
		if err := writeCheckpoint(*savePath, lastTrained.Save); err != nil {
			fail(err)
		}
		fmt.Printf("wrote ensemble checkpoint %s\n", *savePath)
	}
	if *saveBinaryPath != "" {
		bm, err := infer.Quantize(lastTrained)
		if err != nil {
			fail(err)
		}
		if err := writeCheckpoint(*saveBinaryPath, bm.Save); err != nil {
			fail(err)
		}
		fmt.Printf("wrote binary snapshot %s\n", *saveBinaryPath)
	}
}

// writeCheckpoint saves through an (io.Writer) error serializer into path.
func writeCheckpoint(path string, save func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func datasetConfig(name string) (synth.Config, error) {
	switch strings.ToLower(name) {
	case "wesad":
		return synth.WESADConfig(), nil
	case "nurse", "nursestress":
		return synth.NurseStressConfig(), nil
	case "stresspredict", "stress-predict":
		return synth.StressPredictConfig(), nil
	default:
		return synth.Config{}, fmt.Errorf("unknown dataset %q", name)
	}
}

type predictor func([][]float64) ([]int, error)

func trainModel(name, backend string, proj encoding.Projection, train *dataset.Dataset, dim, nl, epochs int, seed int64) (predictor, *boosthd.Model, error) {
	classes := train.NumClasses
	switch strings.ToLower(name) {
	case "boosthd":
		cfg := boosthd.DefaultConfig(dim, nl, classes)
		cfg.Epochs = epochs
		cfg.Seed = seed
		cfg.Projection = proj
		m, err := boosthd.Train(train.X, train.Y, cfg)
		if err != nil {
			return nil, nil, err
		}
		switch strings.ToLower(backend) {
		case "", "float":
			return infer.NewEngine(m).PredictBatch, m, nil
		case "binary", "packed-binary":
			eng, err := infer.NewBinaryEngine(m)
			if err != nil {
				return nil, nil, err
			}
			return eng.PredictBatch, m, nil
		default:
			return nil, nil, fmt.Errorf("unknown backend %q", backend)
		}
	case "onlinehd":
		cfg := onlinehd.DefaultConfig(dim, classes)
		cfg.Epochs = epochs
		cfg.Seed = seed
		m, err := onlinehd.Train(train.X, train.Y, nil, cfg)
		if err != nil {
			return nil, nil, err
		}
		return m.PredictBatch, nil, nil
	case "adaboost":
		cfg := ensemble.DefaultAdaBoostConfig()
		cfg.Seed = seed
		m, err := ensemble.FitAdaBoost(train.X, train.Y, classes, cfg)
		if err != nil {
			return nil, nil, err
		}
		return func(X [][]float64) ([]int, error) { return m.PredictBatch(X), nil }, nil, nil
	case "rf":
		cfg := forest.DefaultConfig()
		cfg.Seed = seed
		m, err := forest.Fit(train.X, train.Y, classes, cfg)
		if err != nil {
			return nil, nil, err
		}
		return func(X [][]float64) ([]int, error) { return m.PredictBatch(X), nil }, nil, nil
	case "xgboost":
		m, err := gbdt.Fit(train.X, train.Y, classes, gbdt.DefaultConfig())
		if err != nil {
			return nil, nil, err
		}
		return func(X [][]float64) ([]int, error) { return m.PredictBatch(X), nil }, nil, nil
	case "svm":
		cfg := svm.DefaultConfig()
		cfg.Seed = seed
		m, err := svm.Fit(train.X, train.Y, classes, cfg)
		if err != nil {
			return nil, nil, err
		}
		return func(X [][]float64) ([]int, error) { return m.PredictBatch(X), nil }, nil, nil
	case "dnn":
		cfg := nn.DefaultConfig(classes)
		cfg.Hidden = []int{256, 128, 64} // tractable CPU width; -model dnn is not the paper-width timing path
		cfg.Epochs = 20
		cfg.Seed = seed
		m, err := nn.New(train.NumFeatures(), cfg)
		if err != nil {
			return nil, nil, err
		}
		if err := m.Fit(train.X, train.Y); err != nil {
			return nil, nil, err
		}
		return m.PredictBatch, nil, nil
	default:
		return nil, nil, fmt.Errorf("unknown model %q", name)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "boosthd:", err)
	os.Exit(1)
}
