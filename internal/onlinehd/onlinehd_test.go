package onlinehd

import (
	"math/rand"
	"testing"

	"boosthd/internal/encoding"
	"boosthd/internal/hdc"
)

// blobs builds a linearly separable 3-class toy problem.
func blobs(n int, seed int64) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	centers := [][]float64{{2, 0, 0}, {0, 2, 0}, {0, 0, 2}}
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		c := i % 3
		y[i] = c
		X[i] = []float64{
			centers[c][0] + 0.3*rng.NormFloat64(),
			centers[c][1] + 0.3*rng.NormFloat64(),
			centers[c][2] + 0.3*rng.NormFloat64(),
		}
	}
	return X, y
}

func TestNewHVClassifierValidation(t *testing.T) {
	if _, err := NewHVClassifier(0, 2, 0.1); err == nil {
		t.Error("expected dim error")
	}
	if _, err := NewHVClassifier(10, 1, 0.1); err == nil {
		t.Error("expected classes error")
	}
	if _, err := NewHVClassifier(10, 2, 0); err == nil {
		t.Error("expected lr error")
	}
}

func TestFitValidation(t *testing.T) {
	c, _ := NewHVClassifier(4, 2, 0.1)
	h := hdc.Vector{1, 2, 3, 4}
	if err := c.Fit(nil, nil, FitOptions{}); err == nil {
		t.Error("expected empty error")
	}
	if err := c.Fit([]hdc.Vector{h}, []int{0, 1}, FitOptions{}); err == nil {
		t.Error("expected length mismatch error")
	}
	if err := c.Fit([]hdc.Vector{{1}}, []int{0}, FitOptions{}); err == nil {
		t.Error("expected dim error")
	}
	if err := c.Fit([]hdc.Vector{h}, []int{7}, FitOptions{}); err == nil {
		t.Error("expected label error")
	}
	if err := c.Fit([]hdc.Vector{h}, []int{0}, FitOptions{Weights: []float64{1, 2}}); err == nil {
		t.Error("expected weights error")
	}
	if err := c.Fit([]hdc.Vector{h}, []int{0}, FitOptions{Bootstrap: true}); err == nil {
		t.Error("expected rng error for bootstrap")
	}
}

func TestHVClassifierLearnsSeparableData(t *testing.T) {
	X, y := blobs(90, 1)
	enc, err := encoding.NewWithGamma(3, 1024, encoding.Nonlinear, encoding.DefaultGamma(3), 5)
	if err != nil {
		t.Fatal(err)
	}
	hs, err := enc.EncodeBatch(X)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := NewHVClassifier(1024, 3, 0.035)
	if err := c.Fit(hs, y, FitOptions{Epochs: 10}); err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i, h := range hs {
		if c.Predict(h) == y[i] {
			correct++
		}
	}
	acc := float64(correct) / float64(len(y))
	if acc < 0.95 {
		t.Errorf("training accuracy %v on separable blobs, want >= 0.95", acc)
	}
}

func TestWeightsFocusLearning(t *testing.T) {
	// With all weight mass on class-0 samples, only class-0 related
	// vectors should move; a sample of class 1 must not dominate.
	X, y := blobs(60, 2)
	enc, _ := encoding.NewWithGamma(3, 512, encoding.Nonlinear, encoding.DefaultGamma(3), 7)
	hs, _ := enc.EncodeBatch(X)
	w := make([]float64, len(y))
	var n0 int
	for i, l := range y {
		if l == 0 {
			w[i] = 1
			n0++
		}
	}
	for i := range w {
		w[i] /= float64(n0)
	}
	c, _ := NewHVClassifier(512, 3, 0.035)
	if err := c.Fit(hs, y, FitOptions{Epochs: 5, Weights: w}); err != nil {
		t.Fatal(err)
	}
	// Class 0 hypervector should have non-trivial norm; classes 1/2 may
	// only be touched as mispredicted counterparts.
	if hdc.Norm(c.Class[0]) == 0 {
		t.Error("class 0 hypervector untouched despite full weight mass")
	}
}

func TestBootstrapFit(t *testing.T) {
	X, y := blobs(90, 3)
	enc, _ := encoding.NewWithGamma(3, 512, encoding.Nonlinear, encoding.DefaultGamma(3), 11)
	hs, _ := enc.EncodeBatch(X)
	c, _ := NewHVClassifier(512, 3, 0.035)
	err := c.Fit(hs, y, FitOptions{Epochs: 8, Bootstrap: true, Rng: rand.New(rand.NewSource(13))})
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i, h := range hs {
		if c.Predict(h) == y[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(y)); acc < 0.9 {
		t.Errorf("bootstrap training accuracy %v, want >= 0.9", acc)
	}
}

func TestZeroWeightSamplesSkipped(t *testing.T) {
	enc, _ := encoding.NewWithGamma(3, 256, encoding.Nonlinear, encoding.DefaultGamma(3), 3)
	hs, _ := enc.EncodeBatch([][]float64{{1, 0, 0}, {0, 1, 0}})
	c, _ := NewHVClassifier(256, 2, 0.5)
	// All weight on sample 0; sample 1 contributes nothing.
	if err := c.Fit(hs, []int{0, 1}, FitOptions{Epochs: 1, Weights: []float64{0.5, 0}}); err != nil {
		t.Fatal(err)
	}
	if hdc.Norm(c.Class[1]) != 0 {
		// class 1 may only move if it was the mispredicted winner of
		// sample 0; with zeroed class vectors the first prediction is
		// class 0 (tie toward low index), so class 1 must stay zero.
		t.Error("zero-weight sample still moved its class vector")
	}
}

func TestCloneIndependence(t *testing.T) {
	c, _ := NewHVClassifier(8, 2, 0.1)
	c.Class[0][0] = 5
	cl := c.Clone()
	cl.Class[0][0] = 9
	if c.Class[0][0] != 5 {
		t.Error("clone shares storage with original")
	}
}

func TestModelTrainPredict(t *testing.T) {
	X, y := blobs(120, 4)
	cfg := DefaultConfig(2048, 3)
	cfg.Epochs = 10
	m, err := Train(X, y, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	Xtest, ytest := blobs(60, 5)
	acc, err := m.Evaluate(Xtest, ytest)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.9 {
		t.Errorf("test accuracy %v, want >= 0.9", acc)
	}
	// Scores agree with Predict.
	s, err := m.Scores(Xtest[0])
	if err != nil {
		t.Fatal(err)
	}
	best := 0
	for l := 1; l < 3; l++ {
		if s[l] > s[best] {
			best = l
		}
	}
	p, _ := m.Predict(Xtest[0])
	if p != best {
		t.Errorf("Predict %d disagrees with argmax Scores %d", p, best)
	}
}

func TestModelPredictBatchMatchesSingle(t *testing.T) {
	X, y := blobs(45, 6)
	cfg := DefaultConfig(512, 3)
	cfg.Epochs = 3
	m, err := Train(X, y, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := m.PredictBatch(X)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range X {
		p, _ := m.Predict(x)
		if p != batch[i] {
			t.Fatalf("batch[%d] = %d, single = %d", i, batch[i], p)
		}
	}
	empty, err := m.PredictBatch(nil)
	if err != nil || len(empty) != 0 {
		t.Error("empty batch should succeed")
	}
	if _, err := m.PredictBatch([][]float64{{1}}); err == nil {
		t.Error("expected feature-length error")
	}
}

func TestModelDeterministicPerSeed(t *testing.T) {
	X, y := blobs(60, 7)
	cfg := DefaultConfig(256, 3)
	cfg.Epochs = 3
	m1, err := Train(X, y, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Train(X, y, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for l := range m1.HV.Class {
		for j := range m1.HV.Class[l] {
			if m1.HV.Class[l][j] != m2.HV.Class[l][j] {
				t.Fatal("same seed must give identical models")
			}
		}
	}
}

func TestTrainValidation(t *testing.T) {
	cfg := DefaultConfig(64, 2)
	if _, err := Train(nil, nil, nil, cfg); err == nil {
		t.Error("expected empty error")
	}
	if _, err := Train([][]float64{{1}}, []int{0, 1}, nil, cfg); err == nil {
		t.Error("expected mismatch error")
	}
	bad := cfg
	bad.Dim = 0
	if _, err := Train([][]float64{{1}}, []int{0}, nil, bad); err == nil {
		t.Error("expected dim error")
	}
}

func TestHigherDimHelps(t *testing.T) {
	// Figure 6's premise: more dimensions, better (or equal) accuracy on
	// a noisy problem. Compare D=32 vs D=2048 on the same data.
	rng := rand.New(rand.NewSource(8))
	n := 240
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		c := i % 3
		y[i] = c
		X[i] = make([]float64, 8)
		for j := range X[i] {
			X[i][j] = 0.7*rng.NormFloat64() + float64(c)*0.8
		}
	}
	train := func(dim int) float64 {
		cfg := DefaultConfig(dim, 3)
		cfg.Epochs = 6
		m, err := Train(X[:180], y[:180], nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		acc, err := m.Evaluate(X[180:], y[180:])
		if err != nil {
			t.Fatal(err)
		}
		return acc
	}
	small, large := train(16), train(2048)
	if large < small-0.05 {
		t.Errorf("high dimension (%v) should not underperform low (%v)", large, small)
	}
}

// The single-row paths below are the references the batch pipeline
// (PredictBatch, Fit's batch encode) is checked against, and Invalidate
// is the hook the norm-cache tests mutate Class behind. Training and
// serving use none of them.

// encode maps one raw feature vector through the encoder's single-row
// kernel.
func (m *Model) encode(x []float64) (hdc.Vector, error) {
	h := make(hdc.Vector, m.Enc.OutDim)
	return h, encoding.Stack{{Enc: m.Enc, Hi: m.Enc.OutDim}}.EncodeInto(x, h)
}

// Predict classifies one raw feature vector.
func (m *Model) Predict(x []float64) (int, error) {
	h, err := m.encode(x)
	if err != nil {
		return 0, err
	}
	return m.HV.Predict(h), nil
}

// Scores returns per-class cosine similarities for one raw feature vector.
func (m *Model) Scores(x []float64) ([]float64, error) {
	h, err := m.encode(x)
	if err != nil {
		return nil, err
	}
	return m.HV.Scores(h), nil
}

// Invalidate marks the class vectors as mutated, discarding the cached
// norms. Call it after writing to Class outside Fit/MutateClass — or
// cosine scores will be computed against stale norms. The write itself is
// unsynchronized: direct Class writes plus Invalidate are only safe from
// a quiescent state (no concurrent readers); mutation that must overlap
// with serving goes through MutateClass.
func (c *HVClassifier) Invalidate() {
	c.mu.Lock()
	c.version++
	c.mu.Unlock()
}

// ScoresInto writes the cosine similarity of h to every class hypervector
// into out (length Classes) without allocating, using the cached class
// norms. The vectors are pinned for the duration of the call, so the
// scores are coherent even against concurrent mutation.
func (c *HVClassifier) ScoresInto(h hdc.Vector, out []float64) {
	norms, unpin := c.PinClass()
	defer unpin()
	cosines(h, c.Class, norms, out)
}

// Scores returns the cosine similarity of h to every class hypervector.
// The query norm is computed once and shared across classes.
func (c *HVClassifier) Scores(h hdc.Vector) []float64 {
	s := make([]float64, c.Classes)
	c.ScoresInto(h, s)
	return s
}

// Predict returns the most similar class for h.
func (c *HVClassifier) Predict(h hdc.Vector) int {
	return argmax(c.Scores(h))
}
