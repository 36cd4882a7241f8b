package svm

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
		X[i] = make([]float64, 4)
		for j := range X[i] {
			X[i][j] = noise * rng.NormFloat64()
		}
		X[i][c] += 2
	}
	return X, y
}

func TestFitValidation(t *testing.T) {
	X, y := blobs(9, 0.1, 1)
	if _, err := Fit(nil, nil, 2, DefaultConfig()); err == nil {
		t.Error("expected empty error")
	}
	if _, err := Fit(X, y[:2], 3, DefaultConfig()); err == nil {
		t.Error("expected mismatch error")
	}
	if _, err := Fit(X, y, 1, DefaultConfig()); err == nil {
		t.Error("expected classes error")
	}
	bad := DefaultConfig()
	bad.Lambda = 0
	if _, err := Fit(X, y, 3, bad); err == nil {
		t.Error("expected lambda error")
	}
	bad = DefaultConfig()
	bad.Epochs = 0
	if _, err := Fit(X, y, 3, bad); err == nil {
		t.Error("expected epochs error")
	}
	if _, err := Fit(X, []int{5, 0, 0, 0, 0, 0, 0, 0, 0}, 3, DefaultConfig()); err == nil {
		t.Error("expected label error")
	}
}

func TestSVMLearnsSeparableData(t *testing.T) {
	X, y := blobs(300, 0.4, 2)
	c, err := Fit(X[:200], y[:200], 3, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	acc, err := c.Evaluate(X[200:], y[200:])
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.9 {
		t.Errorf("svm accuracy %v, want >= 0.9", acc)
	}
}

func TestBinaryProblem(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 200
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		c := i % 2
		y[i] = c
		X[i] = []float64{float64(2*c-1) + 0.3*rng.NormFloat64(), rng.NormFloat64()}
	}
	c, err := Fit(X, y, 2, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	acc, _ := c.Evaluate(X, y)
	if acc < 0.95 {
		t.Errorf("binary svm accuracy %v", acc)
	}
	// The separating weight must live on feature 0.
	w := c.W[1]
	if w[0] <= 0 {
		t.Errorf("class-1 weight on feature 0 = %v, want positive", w[0])
	}
}

func TestDecisionValuesShape(t *testing.T) {
	X, y := blobs(30, 0.2, 4)
	c, err := Fit(X, y, 3, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	d := c.DecisionValues(X[0])
	if len(d) != 3 {
		t.Fatalf("decision values len = %d", len(d))
	}
	best := 0
	for k := 1; k < 3; k++ {
		if d[k] > d[best] {
			best = k
		}
	}
	if best != c.Predict(X[0]) {
		t.Error("Predict disagrees with argmax DecisionValues")
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	X, y := blobs(60, 0.5, 5)
	c1, err := Fit(X, y, 3, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Fit(X, y, 3, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for k := range c1.W {
		for j := range c1.W[k] {
			if c1.W[k][j] != c2.W[k][j] {
				t.Fatal("same seed must give identical weights")
			}
		}
	}
}

func TestPredictBatch(t *testing.T) {
	X, y := blobs(30, 0.2, 6)
	c, err := Fit(X, y, 3, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	pred := c.PredictBatch(X)
	for i := range pred {
		if pred[i] != c.Predict(X[i]) {
			t.Error("batch disagrees with single predict")
		}
	}
	if _, err := c.Evaluate(X, y[:2]); err == nil {
		t.Error("expected mismatch error")
	}
}

// Evaluate returns plain accuracy on a labeled set.
func (c *Classifier) Evaluate(X [][]float64, y []int) (float64, error) {
	if len(X) != len(y) || len(y) == 0 {
		return 0, fmt.Errorf("svm: bad evaluation set")
	}
	correct := 0
	for i, x := range X {
		if c.Predict(x) == y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(y)), nil
}
