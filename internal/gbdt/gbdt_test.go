package gbdt

import (
	"fmt"
	"math"
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
	if _, err := Fit(X, y, 1, DefaultConfig()); err == nil {
		t.Error("expected classes error")
	}
	if _, err := Fit(X, []int{9, 0, 0, 0, 0, 0, 0, 0, 0, 0}, 3, DefaultConfig()); err == nil {
		t.Error("expected label error")
	}
	bad := DefaultConfig()
	bad.NumRounds = 0
	if _, err := Fit(X, y, 3, bad); err == nil {
		t.Error("expected rounds error")
	}
	bad = DefaultConfig()
	bad.LearningRate = 0
	if _, err := Fit(X, y, 3, bad); err == nil {
		t.Error("expected lr error")
	}
}

func TestGBDTLearns(t *testing.T) {
	X, y := blobs(300, 0.6, 2)
	c, err := Fit(X[:200], y[:200], 3, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	acc, err := c.Evaluate(X[200:], y[200:])
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.9 {
		t.Errorf("gbdt accuracy %v, want >= 0.9", acc)
	}
}

func TestMoreRoundsImproveTrainFit(t *testing.T) {
	X, y := blobs(200, 1.5, 3)
	trainAcc := func(rounds int) float64 {
		cfg := DefaultConfig()
		cfg.NumRounds = rounds
		cfg.MaxDepth = 3
		c, err := Fit(X, y, 3, cfg)
		if err != nil {
			t.Fatal(err)
		}
		acc, _ := c.Evaluate(X, y)
		return acc
	}
	if trainAcc(10) < trainAcc(1)-1e-9 {
		t.Errorf("more boosting rounds should not reduce training fit: %v vs %v",
			trainAcc(10), trainAcc(1))
	}
}

func TestPredictProbaIsDistribution(t *testing.T) {
	X, y := blobs(90, 0.5, 4)
	c, err := Fit(X, y, 3, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p := c.PredictProba(X[0])
	var sum float64
	for _, v := range p {
		if v < 0 || v > 1 || math.IsNaN(v) {
			t.Errorf("invalid probability %v", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("probs sum to %v", sum)
	}
	// argmax(proba) agrees with Predict.
	best := 0
	for k := 1; k < 3; k++ {
		if p[k] > p[best] {
			best = k
		}
	}
	if best != c.Predict(X[0]) {
		t.Error("PredictProba argmax disagrees with Predict")
	}
}

func TestRegularizationShrinksLeaves(t *testing.T) {
	X, y := blobs(60, 0.3, 5)
	small := DefaultConfig()
	small.Lambda = 0.001
	small.NumRounds = 1
	big := DefaultConfig()
	big.Lambda = 1000
	big.NumRounds = 1
	cs, err := Fit(X, y, 3, small)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := Fit(X, y, 3, big)
	if err != nil {
		t.Fatal(err)
	}
	// Heavier L2 gives raw scores closer to zero.
	norm := func(c *Classifier) float64 {
		var s float64
		for _, f := range c.RawScores(X[0]) {
			s += f * f
		}
		return s
	}
	if norm(cb) >= norm(cs) {
		t.Errorf("lambda=1000 scores (%v) should be smaller than lambda=0.001 (%v)", norm(cb), norm(cs))
	}
}

func TestGammaPrunesSplits(t *testing.T) {
	X, y := blobs(60, 1.0, 6)
	free := DefaultConfig()
	free.Gamma = 0
	free.NumRounds = 1
	strict := DefaultConfig()
	strict.Gamma = 1e9 // no split can pay this
	strict.NumRounds = 1
	cf, err := Fit(X, y, 3, free)
	if err != nil {
		t.Fatal(err)
	}
	cstrict, err := Fit(X, y, 3, strict)
	if err != nil {
		t.Fatal(err)
	}
	accFree, _ := cf.Evaluate(X, y)
	accStrict, _ := cstrict.Evaluate(X, y)
	if accStrict >= accFree {
		t.Errorf("gamma=inf should force stumps to leaves: %v vs %v", accStrict, accFree)
	}
}

func TestDeterministic(t *testing.T) {
	X, y := blobs(90, 0.8, 7)
	c1, err := Fit(X, y, 3, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Fit(X, y, 3, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p1 := c1.PredictBatch(X)
	p2 := c2.PredictBatch(X)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("gbdt must be deterministic")
		}
	}
}

// PredictProba returns softmax probabilities for one row.
func (c *Classifier) PredictProba(x []float64) []float64 {
	f := c.RawScores(x)
	out := make([]float64, c.Classes)
	softmax(f, out)
	return out
}

// Evaluate returns plain accuracy on a labeled set.
func (c *Classifier) Evaluate(X [][]float64, y []int) (float64, error) {
	if len(X) != len(y) || len(y) == 0 {
		return 0, fmt.Errorf("gbdt: bad evaluation set")
	}
	correct := 0
	for i, x := range X {
		if c.Predict(x) == y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(y)), nil
}
