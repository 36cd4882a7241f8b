// Package gbdt implements the XGBoost baseline of Table I: second-order
// gradient-boosted regression trees with a softmax objective, shrinkage,
// L2-regularized leaf weights, and minimum-gain pruning — the core of
// Chen & Guestrin's algorithm in pure Go. The paper configures 10
// estimators (rounds).
package gbdt

import (
	"fmt"
	"math"
	"sort"
)

// Config controls gradient-boosted training.
type Config struct {
	NumRounds      int     // boosting rounds (paper: 10)
	MaxDepth       int     // per-tree depth cap
	LearningRate   float64 // shrinkage eta
	Lambda         float64 // L2 regularization on leaf weights
	Gamma          float64 // minimum gain to split
	MinChildWeight float64 // minimum hessian mass per child
}

// DefaultConfig returns XGBoost-like defaults with the paper's 10 rounds.
func DefaultConfig() Config {
	return Config{
		NumRounds:      10,
		MaxDepth:       6,
		LearningRate:   0.3,
		Lambda:         1.0,
		Gamma:          0.0,
		MinChildWeight: 1.0,
	}
}

// regNode is a node of a second-order regression tree.
type regNode struct {
	leaf      bool
	feature   int
	threshold float64
	left      *regNode
	right     *regNode
	value     float64 // leaf weight -G/(H+lambda)
}

// Classifier is a trained gradient-boosted multiclass model: one
// regression tree per class per round, scored additively through softmax.
type Classifier struct {
	Cfg     Config
	Classes int
	// trees[round][class]
	trees [][]*regNode
}

// Fit trains the boosted ensemble on X, y.
func Fit(X [][]float64, y []int, classes int, cfg Config) (*Classifier, error) {
	n := len(X)
	if n == 0 {
		return nil, fmt.Errorf("gbdt: empty training set")
	}
	if len(y) != n {
		return nil, fmt.Errorf("gbdt: %d rows vs %d labels", n, len(y))
	}
	if classes < 2 {
		return nil, fmt.Errorf("gbdt: need >= 2 classes, got %d", classes)
	}
	for i, l := range y {
		if l < 0 || l >= classes {
			return nil, fmt.Errorf("gbdt: label %d at %d outside [0,%d)", l, i, classes)
		}
	}
	if cfg.NumRounds < 1 {
		return nil, fmt.Errorf("gbdt: need >= 1 round, got %d", cfg.NumRounds)
	}
	if cfg.MaxDepth < 1 {
		cfg.MaxDepth = 1
	}
	if cfg.LearningRate <= 0 {
		return nil, fmt.Errorf("gbdt: learning rate must be positive, got %v", cfg.LearningRate)
	}

	c := &Classifier{Cfg: cfg, Classes: classes}
	// Raw scores F[i][k], initialized to zero (uniform softmax).
	F := make([][]float64, n)
	for i := range F {
		F[i] = make([]float64, classes)
	}
	grad := make([]float64, n)
	hess := make([]float64, n)
	probs := make([]float64, classes)
	idx := make([]int, n)

	for round := 0; round < cfg.NumRounds; round++ {
		roundTrees := make([]*regNode, classes)
		for k := 0; k < classes; k++ {
			// Softmax gradients for class k.
			for i := 0; i < n; i++ {
				softmax(F[i], probs)
				p := probs[k]
				target := 0.0
				if y[i] == k {
					target = 1.0
				}
				grad[i] = p - target
				hess[i] = p * (1 - p)
				if hess[i] < 1e-16 {
					hess[i] = 1e-16
				}
			}
			for i := range idx {
				idx[i] = i
			}
			root := buildReg(X, grad, hess, idx, 0, cfg)
			roundTrees[k] = root
			// Update raw scores with shrinkage.
			for i := 0; i < n; i++ {
				F[i][k] += cfg.LearningRate * evalReg(root, X[i])
			}
		}
		c.trees = append(c.trees, roundTrees)
	}
	return c, nil
}

func softmax(f, out []float64) {
	maxV := f[0]
	for _, v := range f[1:] {
		if v > maxV {
			maxV = v
		}
	}
	var sum float64
	for i, v := range f {
		out[i] = math.Exp(v - maxV)
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
}

// buildReg grows a second-order regression tree over samples idx.
func buildReg(X [][]float64, grad, hess []float64, idx []int, depth int, cfg Config) *regNode {
	var G, H float64
	for _, i := range idx {
		G += grad[i]
		H += hess[i]
	}
	leafValue := -G / (H + cfg.Lambda)
	if depth >= cfg.MaxDepth || len(idx) < 2 {
		return &regNode{leaf: true, value: leafValue}
	}

	parentScore := G * G / (H + cfg.Lambda)
	bestGain := 0.0
	bestFeature, bestThreshold := -1, 0.0

	numFeatures := len(X[0])
	sorted := make([]int, len(idx))
	for f := 0; f < numFeatures; f++ {
		copy(sorted, idx)
		sort.Slice(sorted, func(a, b int) bool { return X[sorted[a]][f] < X[sorted[b]][f] })
		var GL, HL float64
		for pos := 0; pos < len(sorted)-1; pos++ {
			i := sorted[pos]
			GL += grad[i]
			HL += hess[i]
			if X[i][f] == X[sorted[pos+1]][f] {
				continue
			}
			GR, HR := G-GL, H-HL
			if HL < cfg.MinChildWeight || HR < cfg.MinChildWeight {
				continue
			}
			gain := 0.5*(GL*GL/(HL+cfg.Lambda)+GR*GR/(HR+cfg.Lambda)-parentScore) - cfg.Gamma
			if gain > bestGain+1e-12 {
				bestGain = gain
				bestFeature = f
				bestThreshold = (X[i][f] + X[sorted[pos+1]][f]) / 2
			}
		}
	}
	if bestFeature < 0 {
		return &regNode{leaf: true, value: leafValue}
	}
	var leftIdx, rightIdx []int
	for _, i := range idx {
		if X[i][bestFeature] <= bestThreshold {
			leftIdx = append(leftIdx, i)
		} else {
			rightIdx = append(rightIdx, i)
		}
	}
	if len(leftIdx) == 0 || len(rightIdx) == 0 {
		return &regNode{leaf: true, value: leafValue}
	}
	return &regNode{
		feature:   bestFeature,
		threshold: bestThreshold,
		left:      buildReg(X, grad, hess, leftIdx, depth+1, cfg),
		right:     buildReg(X, grad, hess, rightIdx, depth+1, cfg),
	}
}

func evalReg(n *regNode, x []float64) float64 {
	for !n.leaf {
		if x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.value
}

// RawScores returns the additive raw scores (pre-softmax) for one row.
func (c *Classifier) RawScores(x []float64) []float64 {
	f := make([]float64, c.Classes)
	for _, roundTrees := range c.trees {
		for k, tr := range roundTrees {
			f[k] += c.Cfg.LearningRate * evalReg(tr, x)
		}
	}
	return f
}

// Predict returns the argmax class for one row.
func (c *Classifier) Predict(x []float64) int {
	f := c.RawScores(x)
	best := 0
	for k := 1; k < c.Classes; k++ {
		if f[k] > f[best] {
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
