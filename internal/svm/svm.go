// Package svm implements the linear-kernel SVM baseline of Table I as a
// one-vs-rest ensemble of binary hinge-loss classifiers trained with the
// Pegasos stochastic sub-gradient algorithm (Shalev-Shwartz et al.).
package svm

import (
	"fmt"
	"math/rand"
)

// Config controls Pegasos training.
type Config struct {
	Lambda float64 // regularization strength
	Epochs int     // passes over the data
	Seed   int64
}

// DefaultConfig returns a standard linear-SVM setup.
func DefaultConfig() Config {
	return Config{Lambda: 1e-4, Epochs: 20, Seed: 1}
}

// Classifier is a trained one-vs-rest linear SVM.
type Classifier struct {
	Cfg      Config
	Classes  int
	Features int
	W        [][]float64 // Classes x Features
	B        []float64   // Classes
}

// Fit trains one binary Pegasos classifier per class.
func Fit(X [][]float64, y []int, classes int, cfg Config) (*Classifier, error) {
	n := len(X)
	if n == 0 {
		return nil, fmt.Errorf("svm: empty training set")
	}
	if len(y) != n {
		return nil, fmt.Errorf("svm: %d rows vs %d labels", n, len(y))
	}
	if classes < 2 {
		return nil, fmt.Errorf("svm: need >= 2 classes, got %d", classes)
	}
	if cfg.Lambda <= 0 {
		return nil, fmt.Errorf("svm: lambda must be positive, got %v", cfg.Lambda)
	}
	if cfg.Epochs < 1 {
		return nil, fmt.Errorf("svm: need >= 1 epoch, got %d", cfg.Epochs)
	}
	for i, l := range y {
		if l < 0 || l >= classes {
			return nil, fmt.Errorf("svm: label %d at %d outside [0,%d)", l, i, classes)
		}
	}
	features := len(X[0])
	c := &Classifier{
		Cfg:      cfg,
		Classes:  classes,
		Features: features,
		W:        make([][]float64, classes),
		B:        make([]float64, classes),
	}
	for k := 0; k < classes; k++ {
		c.W[k] = make([]float64, features)
		rng := rand.New(rand.NewSource(cfg.Seed + int64(k)*97))
		w := c.W[k]
		var b float64
		t := 0
		for epoch := 0; epoch < cfg.Epochs; epoch++ {
			order := rng.Perm(n)
			for _, i := range order {
				t++
				eta := 1 / (cfg.Lambda * float64(t))
				yi := -1.0
				if y[i] == k {
					yi = 1.0
				}
				var margin float64
				for j, xv := range X[i] {
					margin += w[j] * xv
				}
				margin = yi * (margin + b)
				decay := 1 - eta*cfg.Lambda
				if decay < 0 {
					decay = 0
				}
				if margin < 1 {
					for j, xv := range X[i] {
						w[j] = decay*w[j] + eta*yi*xv
					}
					b += eta * yi
				} else {
					for j := range w {
						w[j] *= decay
					}
				}
			}
		}
		c.B[k] = b
	}
	return c, nil
}

// DecisionValues returns the per-class margins w_k.x + b_k for one row.
func (c *Classifier) DecisionValues(x []float64) []float64 {
	out := make([]float64, c.Classes)
	for k := 0; k < c.Classes; k++ {
		var s float64
		for j, xv := range x {
			s += c.W[k][j] * xv
		}
		out[k] = s + c.B[k]
	}
	return out
}

// Predict returns the class with the largest margin.
func (c *Classifier) Predict(x []float64) int {
	d := c.DecisionValues(x)
	best := 0
	for k := 1; k < c.Classes; k++ {
		if d[k] > d[best] {
			best = k
		}
	}
	return best
}

// PredictBatch classifies each row of X.
func (c *Classifier) PredictBatch(X [][]float64) []int {
	out := make([]int, len(X))
	for i, x := range X {
		out[i] = c.Predict(x)
	}
	return out
}
