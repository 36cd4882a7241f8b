package forest

import (
	"fmt"
	"math/rand"
	"testing"
)

func blobs(n int, noise float64, seed int64) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		c := i % 3
		y[i] = c
		X[i] = make([]float64, 5)
		for j := range X[i] {
			X[i][j] = noise * rng.NormFloat64()
		}
		X[i][c] += 2
	}
	return X, y
}

func TestFitValidation(t *testing.T) {
	X, y := blobs(10, 0.1, 1)
	if _, err := Fit(nil, nil, 2, DefaultConfig()); err == nil {
		t.Error("expected empty error")
	}
	if _, err := Fit(X, y[:3], 3, DefaultConfig()); err == nil {
		t.Error("expected mismatch error")
	}
	bad := DefaultConfig()
	bad.NumTrees = 0
	if _, err := Fit(X, y, 3, bad); err == nil {
		t.Error("expected tree-count error")
	}
}

func TestForestLearns(t *testing.T) {
	X, y := blobs(300, 0.6, 2)
	f, err := Fit(X[:200], y[:200], 3, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	acc, err := f.Evaluate(X[200:], y[200:])
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.9 {
		t.Errorf("forest accuracy %v, want >= 0.9", acc)
	}
	if len(f.Trees) != 10 {
		t.Errorf("trees = %d, want 10", len(f.Trees))
	}
}

func TestForestBeatsSingleTreeOnNoise(t *testing.T) {
	// Ensembling should not hurt vs a single bootstrap tree on noisy data.
	X, y := blobs(400, 1.2, 3)
	trainX, trainY := X[:300], y[:300]
	testX, testY := X[300:], y[300:]
	cfg := DefaultConfig()
	f, err := Fit(trainX, trainY, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	forestAcc, _ := f.Evaluate(testX, testY)
	cfg1 := cfg
	cfg1.NumTrees = 1
	f1, err := Fit(trainX, trainY, 3, cfg1)
	if err != nil {
		t.Fatal(err)
	}
	singleAcc, _ := f1.Evaluate(testX, testY)
	if forestAcc < singleAcc-0.05 {
		t.Errorf("forest (%v) should not lose to single tree (%v)", forestAcc, singleAcc)
	}
}

func TestForestDeterministicPerSeed(t *testing.T) {
	X, y := blobs(120, 0.8, 4)
	cfg := DefaultConfig()
	f1, err := Fit(X, y, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := Fit(X, y, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p1 := f1.PredictBatch(X)
	p2 := f2.PredictBatch(X)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("same seed must give identical forests")
		}
	}
}

func TestNoBootstrap(t *testing.T) {
	X, y := blobs(90, 0.3, 5)
	cfg := DefaultConfig()
	cfg.Bootstrap = false
	f, err := Fit(X, y, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	acc, _ := f.Evaluate(X, y)
	if acc < 0.95 {
		t.Errorf("no-bootstrap forest train accuracy %v", acc)
	}
}

func TestEvaluateErrors(t *testing.T) {
	X, y := blobs(30, 0.3, 6)
	f, err := Fit(X, y, 3, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Evaluate(X, y[:3]); err == nil {
		t.Error("expected mismatch error")
	}
	if _, err := f.Evaluate(nil, nil); err == nil {
		t.Error("expected empty error")
	}
}

// Evaluate returns plain accuracy on a labeled set.
func (f *Classifier) Evaluate(X [][]float64, y []int) (float64, error) {
	if len(X) != len(y) || len(y) == 0 {
		return 0, fmt.Errorf("forest: bad evaluation set")
	}
	correct := 0
	for i, x := range X {
		if f.Predict(x) == y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(y)), nil
}
