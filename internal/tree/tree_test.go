package tree

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// xor2 is a dataset no depth-1 stump can solve but depth-2 trees can.
func xor2() ([][]float64, []int) {
	return [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}},
		[]int{0, 1, 1, 0}
}

func TestFitValidation(t *testing.T) {
	X, y := xor2()
	if _, err := Fit(nil, nil, nil, 2, DefaultConfig()); err == nil {
		t.Error("expected empty error")
	}
	if _, err := Fit(X, y[:2], nil, 2, DefaultConfig()); err == nil {
		t.Error("expected mismatch error")
	}
	if _, err := Fit(X, y, nil, 1, DefaultConfig()); err == nil {
		t.Error("expected classes error")
	}
	if _, err := Fit(X, []int{0, 1, 9, 0}, nil, 2, DefaultConfig()); err == nil {
		t.Error("expected label error")
	}
	if _, err := Fit(X, y, []float64{1}, 2, DefaultConfig()); err == nil {
		t.Error("expected weights error")
	}
}

func TestStumpSplitsOnBestFeature(t *testing.T) {
	// Feature 1 perfectly separates; feature 0 is noise.
	X := [][]float64{{0.9, 0}, {0.1, 0.1}, {0.5, 1}, {0.2, 0.9}}
	y := []int{0, 0, 1, 1}
	cfg := Config{MaxDepth: 1}
	c, err := Fit(X, y, nil, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range X {
		if c.Predict(x) != y[i] {
			t.Errorf("stump misclassified %v", x)
		}
	}
	if c.Depth() != 1 {
		t.Errorf("Depth = %d, want 1", c.Depth())
	}
}

func TestXORNeedsDepth2(t *testing.T) {
	X, y := xor2()
	stump, err := Fit(X, y, nil, 2, Config{MaxDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	correctStump := 0
	for i, x := range X {
		if stump.Predict(x) == y[i] {
			correctStump++
		}
	}
	deep, err := Fit(X, y, nil, 2, Config{MaxDepth: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range X {
		if deep.Predict(x) != y[i] {
			t.Errorf("depth-3 tree should solve XOR, misclassified %v", x)
		}
	}
	if correctStump == 4 {
		t.Error("a stump should not solve XOR")
	}
}

func TestWeightsSteerTheSplit(t *testing.T) {
	// Two groups conflict; weights decide which the stump fits.
	X := [][]float64{{0}, {1}, {2}, {3}}
	y := []int{0, 0, 1, 1}
	// Up-weight the "reversed" labeling of the middle points.
	yConf := []int{0, 1, 0, 1}
	wLeft := []float64{10, 10, 0.1, 0.1}
	c, err := Fit(X, yConf, wLeft, 2, Config{MaxDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	// With mass on the first two samples, the stump must split {0} vs {1}.
	if c.Predict([]float64{0}) != 0 || c.Predict([]float64{1}) != 1 {
		t.Error("weighted stump ignored the heavy samples")
	}
	_ = y
}

func TestPredictProba(t *testing.T) {
	X := [][]float64{{0}, {0.1}, {1}, {1.1}, {1.2}}
	y := []int{0, 1, 1, 1, 1}
	c, err := Fit(X, y, nil, 2, Config{MaxDepth: 1, MinSamplesLeaf: 2})
	if err != nil {
		t.Fatal(err)
	}
	p := c.PredictProba([]float64{0})
	if len(p) != 2 {
		t.Fatalf("probs len = %d", len(p))
	}
	var sum float64
	for _, v := range p {
		if v < 0 || v > 1 {
			t.Errorf("prob out of range: %v", v)
		}
		sum += v
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("probs sum to %v", sum)
	}
}

func TestPureNodeStopsEarly(t *testing.T) {
	X := [][]float64{{0}, {1}, {2}, {3}}
	y := []int{1, 1, 1, 1}
	c, err := Fit(X, y, nil, 2, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if c.Depth() != 0 {
		t.Errorf("pure data should produce a leaf, depth = %d", c.Depth())
	}
	if c.NodeCount() != 1 {
		t.Errorf("NodeCount = %d, want 1", c.NodeCount())
	}
}

func TestEntropyCriterion(t *testing.T) {
	X := [][]float64{{0}, {0.2}, {1}, {1.2}}
	y := []int{0, 0, 1, 1}
	c, err := Fit(X, y, nil, 2, Config{MaxDepth: 2, Criterion: Entropy})
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range X {
		if c.Predict(x) != y[i] {
			t.Error("entropy tree failed on separable data")
		}
	}
}

func TestMaxFeaturesSubsampling(t *testing.T) {
	// With MaxFeatures=1 on a 2-feature problem the tree still fits, and
	// different seeds may pick different features; just check validity.
	rng := rand.New(rand.NewSource(1))
	n := 100
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		c := i % 2
		y[i] = c
		X[i] = []float64{float64(c) + 0.2*rng.NormFloat64(), float64(c) + 0.2*rng.NormFloat64()}
	}
	c, err := Fit(X, y, nil, 2, Config{MaxDepth: 4, MaxFeatures: 1, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i, x := range X {
		if c.Predict(x) == y[i] {
			correct++
		}
	}
	if float64(correct)/float64(n) < 0.9 {
		t.Errorf("feature-subsampled tree accuracy %v", float64(correct)/float64(n))
	}
}

func TestMinSamplesLeafRespected(t *testing.T) {
	X := [][]float64{{0}, {1}, {2}, {3}, {4}, {5}}
	y := []int{0, 0, 0, 1, 1, 1}
	c, err := Fit(X, y, nil, 2, Config{MaxDepth: 10, MinSamplesLeaf: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Only one split is possible that leaves 3 samples per side.
	if c.Depth() > 1 {
		t.Errorf("depth = %d, want <= 1 with MinSamplesLeaf=3", c.Depth())
	}
}

func TestPredictBatch(t *testing.T) {
	X, y := xor2()
	c, err := Fit(X, y, nil, 2, Config{MaxDepth: 3})
	if err != nil {
		t.Fatal(err)
	}
	pred := c.PredictBatch(X)
	for i := range pred {
		if pred[i] != c.Predict(X[i]) {
			t.Error("batch disagrees with single predict")
		}
	}
}

// Property: a depth-capped tree never exceeds its depth budget and always
// classifies into a valid class.
func TestTreeInvariantsQuick(t *testing.T) {
	f := func(seed int64, depthRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		depth := int(depthRaw)%6 + 1
		n := 60
		X := make([][]float64, n)
		y := make([]int, n)
		for i := range X {
			X[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
			y[i] = rng.Intn(3)
		}
		c, err := Fit(X, y, nil, 3, Config{MaxDepth: depth})
		if err != nil {
			return false
		}
		if c.Depth() > depth {
			return false
		}
		for _, x := range X {
			p := c.Predict(x)
			if p < 0 || p >= 3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// DefaultConfig returns a moderately deep tree suitable as a standalone
// classifier.
func DefaultConfig() Config {
	return Config{MaxDepth: 10, MinSamplesSplit: 2, MinSamplesLeaf: 1, Criterion: Gini}
}

// PredictProba returns the training-weighted class distribution of the
// leaf x falls into.
func (c *Classifier) PredictProba(x []float64) []float64 {
	n := c.root
	for !n.leaf {
		if x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	out := make([]float64, len(n.probs))
	copy(out, n.probs)
	return out
}

// NodeCount returns the number of nodes in the tree (diagnostics).
func (c *Classifier) NodeCount() int { return c.nodes }

// Depth returns the depth of the trained tree.
func (c *Classifier) Depth() int { return depthOf(c.root) }

func depthOf(n *node) int {
	if n == nil || n.leaf {
		return 0
	}
	l, r := depthOf(n.left), depthOf(n.right)
	if l > r {
		return l + 1
	}
	return r + 1
}
