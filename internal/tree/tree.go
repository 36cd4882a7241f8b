// Package tree implements weighted CART decision trees: the weak learner
// for the AdaBoost baseline, the base estimator for the Random Forest
// baseline, and the structural template for the gradient-boosted trees.
// Splits maximize weighted impurity decrease (Gini or entropy) and support
// per-node random feature subsampling for forests.
package tree

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Criterion selects the impurity measure.
type Criterion int

const (
	// Gini impurity: 1 - sum p_c^2.
	Gini Criterion = iota
	// Entropy impurity: -sum p_c log2 p_c.
	Entropy
)

// Config controls tree induction.
type Config struct {
	MaxDepth        int // maximum depth (>= 1); 0 means 1 (a stump)
	MinSamplesSplit int // minimum samples to attempt a split (>= 2)
	MinSamplesLeaf  int // minimum samples in each child (>= 1)
	Criterion       Criterion
	MaxFeatures     int   // features tried per split; 0 = all (forests use sqrt)
	Seed            int64 // feature-subsample randomness
}

type node struct {
	leaf      bool
	feature   int
	threshold float64
	left      *node
	right     *node
	probs     []float64 // weighted class distribution at the node
	pred      int
}

// Classifier is a trained decision tree.
type Classifier struct {
	Cfg     Config
	Classes int
	root    *node
	nodes   int
}

// Fit trains a tree on X, y with optional sample weights w (nil = uniform).
func Fit(X [][]float64, y []int, w []float64, classes int, cfg Config) (*Classifier, error) {
	n := len(X)
	if n == 0 {
		return nil, fmt.Errorf("tree: empty training set")
	}
	if len(y) != n {
		return nil, fmt.Errorf("tree: %d rows vs %d labels", n, len(y))
	}
	if classes < 2 {
		return nil, fmt.Errorf("tree: need >= 2 classes, got %d", classes)
	}
	for i, l := range y {
		if l < 0 || l >= classes {
			return nil, fmt.Errorf("tree: label %d at %d outside [0,%d)", l, i, classes)
		}
	}
	if w == nil {
		w = make([]float64, n)
		for i := range w {
			w[i] = 1 / float64(n)
		}
	} else if len(w) != n {
		return nil, fmt.Errorf("tree: %d weights vs %d rows", len(w), n)
	}
	if cfg.MaxDepth < 1 {
		cfg.MaxDepth = 1
	}
	if cfg.MinSamplesSplit < 2 {
		cfg.MinSamplesSplit = 2
	}
	if cfg.MinSamplesLeaf < 1 {
		cfg.MinSamplesLeaf = 1
	}
	c := &Classifier{Cfg: cfg, Classes: classes}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	c.root = c.build(X, y, w, idx, 0, rng)
	return c, nil
}

// impurity computes the weighted impurity of a class-mass histogram.
func impurity(counts []float64, total float64, crit Criterion) float64 {
	if total <= 0 {
		return 0
	}
	switch crit {
	case Entropy:
		var h float64
		for _, c := range counts {
			if c > 0 {
				p := c / total
				h -= p * math.Log2(p)
			}
		}
		return h
	default:
		var s float64
		for _, c := range counts {
			p := c / total
			s += p * p
		}
		return 1 - s
	}
}

func (c *Classifier) makeLeaf(counts []float64, total float64) *node {
	probs := make([]float64, c.Classes)
	pred := 0
	for l, cnt := range counts {
		if total > 0 {
			probs[l] = cnt / total
		}
		if cnt > counts[pred] {
			pred = l
		}
	}
	c.nodes++
	return &node{leaf: true, probs: probs, pred: pred}
}

func (c *Classifier) build(X [][]float64, y []int, w []float64, idx []int, depth int, rng *rand.Rand) *node {
	counts := make([]float64, c.Classes)
	var total float64
	for _, i := range idx {
		counts[y[i]] += w[i]
		total += w[i]
	}
	pure := impurity(counts, total, c.Cfg.Criterion) == 0
	if depth >= c.Cfg.MaxDepth || len(idx) < c.Cfg.MinSamplesSplit || pure {
		return c.makeLeaf(counts, total)
	}

	numFeatures := len(X[0])
	features := make([]int, numFeatures)
	for i := range features {
		features[i] = i
	}
	if c.Cfg.MaxFeatures > 0 && c.Cfg.MaxFeatures < numFeatures {
		rng.Shuffle(numFeatures, func(i, j int) { features[i], features[j] = features[j], features[i] })
		features = features[:c.Cfg.MaxFeatures]
	}

	parentImp := impurity(counts, total, c.Cfg.Criterion)
	// Zero-gain splits are admissible (CART keeps splitting until pure or
	// depth-capped — XOR-like data has no positive-gain first split), but
	// numerically negative ones are not.
	bestGain := -1e-9
	bestFeature, bestThreshold := -1, 0.0

	sorted := make([]int, len(idx))
	leftCounts := make([]float64, c.Classes)
	for _, f := range features {
		copy(sorted, idx)
		sort.Slice(sorted, func(a, b int) bool { return X[sorted[a]][f] < X[sorted[b]][f] })
		for l := range leftCounts {
			leftCounts[l] = 0
		}
		var leftTotal float64
		for pos := 0; pos < len(sorted)-1; pos++ {
			i := sorted[pos]
			leftCounts[y[i]] += w[i]
			leftTotal += w[i]
			// Only split between distinct feature values.
			if X[i][f] == X[sorted[pos+1]][f] {
				continue
			}
			nLeft, nRight := pos+1, len(sorted)-pos-1
			if nLeft < c.Cfg.MinSamplesLeaf || nRight < c.Cfg.MinSamplesLeaf {
				continue
			}
			rightTotal := total - leftTotal
			var leftImp, rightImp float64
			leftImp = impurity(leftCounts, leftTotal, c.Cfg.Criterion)
			rightCounts := make([]float64, c.Classes)
			for l := range rightCounts {
				rightCounts[l] = counts[l] - leftCounts[l]
			}
			rightImp = impurity(rightCounts, rightTotal, c.Cfg.Criterion)
			gain := parentImp - (leftTotal*leftImp+rightTotal*rightImp)/total
			if gain > bestGain+1e-12 {
				bestGain = gain
				bestFeature = f
				bestThreshold = (X[i][f] + X[sorted[pos+1]][f]) / 2
			}
		}
	}
	if bestFeature < 0 {
		return c.makeLeaf(counts, total)
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
		return c.makeLeaf(counts, total)
	}
	c.nodes++
	return &node{
		feature:   bestFeature,
		threshold: bestThreshold,
		left:      c.build(X, y, w, leftIdx, depth+1, rng),
		right:     c.build(X, y, w, rightIdx, depth+1, rng),
	}
}

// Predict returns the predicted class of x.
func (c *Classifier) Predict(x []float64) int {
	n := c.root
	for !n.leaf {
		if x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.pred
}

// PredictBatch classifies each row of X.
func (c *Classifier) PredictBatch(X [][]float64) []int {
	out := make([]int, len(X))
	for i, x := range X {
		out[i] = c.Predict(x)
	}
	return out
}
