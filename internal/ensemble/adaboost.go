package ensemble

import (
	"fmt"

	"boosthd/internal/tree"
)

// AdaBoostConfig mirrors the paper's AdaBoost baseline: 10 decision-stump
// estimators with learning rate 1.0.
type AdaBoostConfig struct {
	NumEstimators int     // paper: 10
	LearningRate  float64 // paper: 1.0 (scales alpha)
	MaxDepth      int     // weak-learner depth (stumps by default)
	Seed          int64
}

// DefaultAdaBoostConfig returns the paper's Section IV AdaBoost setup.
func DefaultAdaBoostConfig() AdaBoostConfig {
	return AdaBoostConfig{NumEstimators: 10, LearningRate: 1.0, MaxDepth: 1, Seed: 1}
}

// AdaBoost is a trained SAMME ensemble of weighted CART trees.
type AdaBoost struct {
	Cfg     AdaBoostConfig
	Classes int
	Trees   []*tree.Classifier
	Alphas  []float64
}

// FitAdaBoost trains the tree-based AdaBoost baseline using the same Boost
// core that drives BoostHD.
func FitAdaBoost(X [][]float64, y []int, classes int, cfg AdaBoostConfig) (*AdaBoost, error) {
	if cfg.NumEstimators < 1 {
		return nil, fmt.Errorf("ensemble: need >= 1 estimator, got %d", cfg.NumEstimators)
	}
	if cfg.LearningRate <= 0 {
		return nil, fmt.Errorf("ensemble: learning rate must be positive, got %v", cfg.LearningRate)
	}
	a := &AdaBoost{Cfg: cfg, Classes: classes, Trees: make([]*tree.Classifier, cfg.NumEstimators)}
	results, err := Boost(y, classes, cfg.NumEstimators, func(round int, w []float64) ([]int, error) {
		tcfg := tree.Config{
			MaxDepth:        cfg.MaxDepth,
			MinSamplesSplit: 2,
			MinSamplesLeaf:  1,
			Criterion:       tree.Gini,
			Seed:            cfg.Seed + int64(round)*31,
		}
		tr, err := tree.Fit(X, y, w, classes, tcfg)
		if err != nil {
			return nil, err
		}
		a.Trees[round] = tr
		return tr.PredictBatch(X), nil
	})
	if err != nil {
		return nil, err
	}
	a.Alphas = make([]float64, len(results))
	for i, r := range results {
		a.Alphas[i] = cfg.LearningRate * r.Alpha
	}
	return a, nil
}

// Predict returns the alpha-weighted vote over the trees.
func (a *AdaBoost) Predict(x []float64) int {
	votes := make([]int, len(a.Trees))
	for i, tr := range a.Trees {
		votes[i] = tr.Predict(x)
	}
	return VoteAggregate(votes, a.Alphas, a.Classes)
}

// PredictBatch classifies each row of X.
func (a *AdaBoost) PredictBatch(X [][]float64) []int {
	out := make([]int, len(X))
	for i, x := range X {
		out[i] = a.Predict(x)
	}
	return out
}
