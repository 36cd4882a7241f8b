// Package forest implements the Random Forest baseline of Table I:
// bootstrap-resampled CART trees with per-split random feature
// subsampling and majority voting. The paper's configuration is 10
// estimators with bootstrap enabled.
package forest

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"boosthd/internal/tree"
)

// Config controls forest training.
type Config struct {
	NumTrees    int  // paper: 10
	MaxDepth    int  // per-tree depth cap
	MaxFeatures int  // features per split; 0 = sqrt(numFeatures)
	Bootstrap   bool // paper: enabled
	Seed        int64
}

// DefaultConfig returns the paper's Random Forest hyperparameters.
func DefaultConfig() Config {
	return Config{NumTrees: 10, MaxDepth: 12, Bootstrap: true, Seed: 1}
}

// Classifier is a trained random forest.
type Classifier struct {
	Cfg     Config
	Classes int
	Trees   []*tree.Classifier
}

// Fit trains the forest. Trees are grown in parallel: each has an
// independent bootstrap sample and feature-subsampling stream derived
// deterministically from Seed.
func Fit(X [][]float64, y []int, classes int, cfg Config) (*Classifier, error) {
	if len(X) == 0 {
		return nil, fmt.Errorf("forest: empty training set")
	}
	if len(X) != len(y) {
		return nil, fmt.Errorf("forest: %d rows vs %d labels", len(X), len(y))
	}
	if cfg.NumTrees < 1 {
		return nil, fmt.Errorf("forest: need >= 1 tree, got %d", cfg.NumTrees)
	}
	maxFeatures := cfg.MaxFeatures
	if maxFeatures <= 0 {
		maxFeatures = int(math.Sqrt(float64(len(X[0]))))
		if maxFeatures < 1 {
			maxFeatures = 1
		}
	}
	f := &Classifier{Cfg: cfg, Classes: classes, Trees: make([]*tree.Classifier, cfg.NumTrees)}

	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		fatal error
	)
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for t := 0; t < cfg.NumTrees; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(t)*7919))
			bx, by := X, y
			if cfg.Bootstrap {
				n := len(X)
				bx = make([][]float64, n)
				by = make([]int, n)
				for i := 0; i < n; i++ {
					j := rng.Intn(n)
					bx[i] = X[j]
					by[i] = y[j]
				}
			}
			tcfg := tree.Config{
				MaxDepth:        cfg.MaxDepth,
				MinSamplesSplit: 2,
				MinSamplesLeaf:  1,
				Criterion:       tree.Gini,
				MaxFeatures:     maxFeatures,
				Seed:            cfg.Seed + int64(t)*104729,
			}
			tr, err := tree.Fit(bx, by, nil, classes, tcfg)
			if err != nil {
				mu.Lock()
				if fatal == nil {
					fatal = fmt.Errorf("forest: tree %d: %w", t, err)
				}
				mu.Unlock()
				return
			}
			f.Trees[t] = tr
		}(t)
	}
	wg.Wait()
	if fatal != nil {
		return nil, fatal
	}
	return f, nil
}

// Predict returns the majority vote over trees for one row.
func (f *Classifier) Predict(x []float64) int {
	votes := make([]int, f.Classes)
	for _, tr := range f.Trees {
		votes[tr.Predict(x)]++
	}
	best := 0
	for c := 1; c < f.Classes; c++ {
		if votes[c] > votes[best] {
			best = c
		}
	}
	return best
}

// PredictBatch classifies each row of X.
func (f *Classifier) PredictBatch(X [][]float64) []int {
	out := make([]int, len(X))
	for i, x := range X {
		out[i] = f.Predict(x)
	}
	return out
}
