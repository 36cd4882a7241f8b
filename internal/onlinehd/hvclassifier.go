// Package onlinehd implements the OnlineHD classifier (Hernandez-Cano et
// al., DATE 2021) the paper uses both as its strongest HDC baseline and as
// the weak learner inside BoostHD. Training is a single adaptive pass plus
// optional refinement epochs: on a misprediction the true class
// hypervector is pulled toward the sample and the wrongly winning class is
// pushed away, each scaled by how confident the model already was.
package onlinehd

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"boosthd/internal/ensemble"
	"boosthd/internal/hdc"
)

// HVClassifier learns class hypervectors over pre-encoded inputs. BoostHD
// trains one HVClassifier per dimension partition, feeding each a slice of
// the shared encoding, so this layer never touches raw features.
//
// Inference caches the class-vector norms so scoring costs one dot product
// per class instead of a dot product plus a norm. The cache is keyed to a
// version counter that Fit and MutateClass bump when the class vectors
// change.
//
// Concurrency: mu guards the class-vector contents, the version counter,
// and the norm cache. Mutators either go through Fit/MutateClass (which
// hold the write lock) or write Class directly from a quiescent state and
// call Invalidate by hand; concurrent readers pin the vectors with
// ReadClass/PinClass so serving can overlap safely with fault injection
// and retraining.
type HVClassifier struct {
	Dim     int
	Classes int
	LR      float64

	//hd:guarded direct access only in this file; use ReadClass/MutateClass/PinClass/SetClass
	Class []hdc.Vector // Classes hypervectors of length Dim

	mu sync.RWMutex

	//hd:version bumped on every Class mutation (Fit, MutateClass, Invalidate)
	version uint64
	normVer uint64    // version the cached norms were computed at
	norms   []float64 // immutable norm snapshot; replaced on refresh, never rewritten
}

// NewHVClassifier allocates a zeroed classifier.
func NewHVClassifier(dim, classes int, lr float64) (*HVClassifier, error) {
	if err := checkShape(dim, classes, lr); err != nil {
		return nil, err
	}
	c := &HVClassifier{Dim: dim, Classes: classes, LR: lr, Class: make([]hdc.Vector, classes)}
	for i := range c.Class {
		c.Class[i] = hdc.NewVector(dim)
	}
	return c, nil
}

// NewHVClassifierFrom builds a classifier around class, one vector of
// length dim per class, taking ownership of the vectors rather than
// copying them, so a loader that decoded them fresh allocates each class
// vector once. The caller must neither keep nor write class afterwards.
func NewHVClassifierFrom(dim int, class []hdc.Vector, lr float64) (*HVClassifier, error) {
	if err := checkShape(dim, len(class), lr); err != nil {
		return nil, err
	}
	for i, cv := range class {
		if len(cv) != dim {
			return nil, fmt.Errorf("onlinehd: class %d has dim %d, want %d", i, len(cv), dim)
		}
	}
	return &HVClassifier{Dim: dim, Classes: len(class), LR: lr, Class: class}, nil
}

// checkShape validates a classifier's geometry and learning rate.
func checkShape(dim, classes int, lr float64) error {
	if dim <= 0 {
		return fmt.Errorf("onlinehd: invalid dimension %d", dim)
	}
	if classes < 2 {
		return fmt.Errorf("onlinehd: need >= 2 classes, got %d", classes)
	}
	if lr <= 0 {
		return fmt.Errorf("onlinehd: learning rate must be positive, got %v", lr)
	}
	return nil
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

// MutateClass runs fn over the class hypervectors under the write lock
// and bumps the version counter, establishing happens-before with
// concurrent readers (ReadClass, PinClass, ClassNorms and the scoring
// paths built on them). In-place mutators that can race with serving —
// fault injection above all — must use this instead of writing Class
// directly.
func (c *HVClassifier) MutateClass(fn func(class []hdc.Vector)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	fn(c.Class)
	c.version++
}

// SetClass replaces the class hypervectors with a deep copy of class
// under the write lock and bumps the version counter, so a classifier
// that is already shared with serving goroutines can be re-seeded (model
// load, checkpoint restore) without tearing in-flight reads or leaving a
// stale norm cache behind. The copy also severs aliasing: later writes
// through the caller's slices cannot reach the installed memory.
func (c *HVClassifier) SetClass(class []hdc.Vector) error {
	if len(class) != c.Classes {
		return fmt.Errorf("onlinehd: %d class vectors for %d classes", len(class), c.Classes)
	}
	for i, cv := range class {
		if len(cv) != c.Dim {
			return fmt.Errorf("onlinehd: class %d has dim %d, want %d", i, len(cv), c.Dim)
		}
	}
	fresh := make([]hdc.Vector, len(class))
	for i, cv := range class {
		fresh[i] = cv.Clone()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.Class = fresh
	c.version++
	return nil
}

// RestoreSegments copies the [lo,hi) dimension ranges of src into every
// class hypervector under the write lock and bumps the version counter —
// the surgical repair path: a reliability monitor that attributed float
// corruption to specific dimension segments restores exactly those
// ranges from a verified checkpoint, leaving the rest of the learner's
// (healthy, possibly since-updated) memory untouched. Ranges must lie
// within [0,Dim) and src must match the classifier's geometry.
func (c *HVClassifier) RestoreSegments(src []hdc.Vector, ranges [][2]int) error {
	if len(src) != c.Classes {
		return fmt.Errorf("onlinehd: %d source class vectors for %d classes", len(src), c.Classes)
	}
	for i, cv := range src {
		if len(cv) != c.Dim {
			return fmt.Errorf("onlinehd: source class %d has dim %d, want %d", i, len(cv), c.Dim)
		}
	}
	for _, r := range ranges {
		if r[0] < 0 || r[1] < r[0] || r[1] > c.Dim {
			return fmt.Errorf("onlinehd: restore range [%d,%d) outside [0,%d)", r[0], r[1], c.Dim)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, cv := range src {
		for _, r := range ranges {
			copy(c.Class[i][r[0]:r[1]], cv[r[0]:r[1]])
		}
	}
	c.version++
	return nil
}

// ReadClass runs fn over the class hypervectors and the version they are
// at, under the read lock: fn observes a consistent (version, vectors)
// pair even while MutateClass or Fit runs on other goroutines. fn must
// not retain the vectors past its return or call back into methods that
// take the write lock.
func (c *HVClassifier) ReadClass(fn func(class []hdc.Vector, version uint64)) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	fn(c.Class, c.version)
}

// Version returns the mutation counter. Engines that hold state derived
// from the class vectors (norm snapshots, quantized copies) compare it to
// decide when to refresh.
func (c *HVClassifier) Version() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.version
}

// ClassNorms returns the per-class Euclidean norms, recomputing them only
// when the class vectors changed since the last call. Each refresh
// allocates a fresh slice, so the returned value is an immutable snapshot:
// it stays internally consistent for as long as the caller holds it, even
// across later mutations and refreshes. Safe for concurrent use.
func (c *HVClassifier) ClassNorms() []float64 {
	c.mu.RLock()
	if c.norms != nil && c.normVer == c.version {
		norms := c.norms
		c.mu.RUnlock()
		//hdlint:ignore snapshotalias norms is an immutable snapshot: replaced on refresh, never rewritten
		return norms
	}
	c.mu.RUnlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.norms == nil || c.normVer != c.version {
		norms := make([]float64, c.Classes)
		classNorms(c.Class, norms)
		c.norms = norms
		c.normVer = c.version
	}
	//hdlint:ignore snapshotalias norms is an immutable snapshot: replaced on refresh, never rewritten
	return c.norms
}

// PinClass read-locks the class vectors after making sure the norm cache
// matches them, returning the pinned norm snapshot and an unpin func.
// Until unpin is called no mutator can touch the vectors, so batch scorers
// can read Class and the norms coherently for a whole batch. The read lock
// may be released from a different goroutine than took it, but unpin must
// be called exactly once.
func (c *HVClassifier) PinClass() (norms []float64, unpin func()) {
	for {
		c.ClassNorms() // refresh outside the read lock (may take the write lock)
		c.mu.RLock()
		if c.norms != nil && c.normVer == c.version {
			//hdlint:ignore snapshotalias pinned immutable norm snapshot; the paired unpin releases the read lock
			return c.norms, c.mu.RUnlock
		}
		c.mu.RUnlock() // mutated between refresh and pin; retry
	}
}

// cosines writes the cosine similarity of h to every class hypervector
// into out, given the class norms: one fused pass (hdc.Dots) takes the
// query norm and every dot together, and a zero query or class norm
// scores 0. Training, streaming updates and every scoring entry point
// share it.
func cosines(h hdc.Vector, class []hdc.Vector, norms, out []float64) {
	hn := math.Sqrt(hdc.Dots(h, class, out))
	for l, cn := range norms {
		if hn == 0 || cn == 0 {
			out[l] = 0
			continue
		}
		out[l] /= hn * cn
	}
}

// classNorms writes the Euclidean norm of every class hypervector into
// norms.
func classNorms(class []hdc.Vector, norms []float64) {
	for l, cv := range class {
		norms[l] = hdc.Norm(cv)
	}
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

// argmax returns the index of the strictly greatest score, ties broken
// toward the lowest index.
func argmax(s []float64) int {
	best := 0
	for l := 1; l < len(s); l++ {
		if s[l] > s[best] {
			best = l
		}
	}
	return best
}

// Predict returns the most similar class for h.
func (c *HVClassifier) Predict(h hdc.Vector) int {
	return argmax(c.Scores(h))
}

// FitOptions tunes a training run over encoded samples.
type FitOptions struct {
	Epochs    int        // adaptive passes over the data (>= 1)
	Weights   []float64  // optional per-sample weights (boosting)
	Bootstrap bool       // resample each epoch proportionally to weights
	Rng       *rand.Rand // required when Bootstrap is set
}

// Fit trains the classifier on encoded hypervectors hs with labels y: an
// initial one-shot bundling pass (epoch 0) followed by OnlineHD adaptive
// refinement passes. With weights, each sample's update is scaled by
// n*w_i (so uniform weights reproduce the unweighted pass); with
// Bootstrap, each epoch instead visits a weighted resample of the data,
// the configuration the paper uses ("bootstrap enabled").
func (c *HVClassifier) Fit(hs []hdc.Vector, y []int, opt FitOptions) error {
	n := len(hs)
	if n == 0 {
		return fmt.Errorf("onlinehd: empty training set")
	}
	if len(y) != n {
		return fmt.Errorf("onlinehd: %d samples vs %d labels", n, len(y))
	}
	for i, h := range hs {
		if len(h) != c.Dim {
			return fmt.Errorf("onlinehd: sample %d has dim %d, want %d", i, len(h), c.Dim)
		}
		if y[i] < 0 || y[i] >= c.Classes {
			return fmt.Errorf("onlinehd: label %d at %d outside [0,%d)", y[i], i, c.Classes)
		}
	}
	if opt.Epochs < 1 {
		opt.Epochs = 1
	}
	if opt.Weights != nil && len(opt.Weights) != n {
		return fmt.Errorf("onlinehd: %d weights for %d samples", len(opt.Weights), n)
	}
	if opt.Bootstrap && opt.Rng == nil {
		return fmt.Errorf("onlinehd: bootstrap requires an rng")
	}
	// Training rewrites the class vectors: hold the write lock for the
	// whole run so concurrent readers never see a half-trained memory, and
	// bump the version on the way out so no cached norm state survives.
	c.mu.Lock()
	defer func() {
		c.version++
		c.mu.Unlock()
	}()

	// scores is per-sample scratch; norms holds the class norms across
	// the run, recomputed only for the classes an update moved.
	scores, norms := make([]float64, c.Classes), make([]float64, c.Classes)
	classNorms(c.Class, norms)

	// Pass 0 is the novelty-weighted single pass (onePass); the remaining
	// epochs run the adaptive similarity-guided refinement. Starting
	// adaptive updates from zeroed class vectors would leave the
	// tie-broken winning class untrainable, so the one-pass seeds the
	// space first.
	for epoch := 0; epoch < opt.Epochs; epoch++ {
		if opt.Bootstrap {
			w := opt.Weights
			if w == nil {
				w = make([]float64, n)
				for i := range w {
					w[i] = 1
				}
			}
			idx, err := ensemble.WeightedSample(w, n, opt.Rng.Float64)
			if err != nil {
				return fmt.Errorf("onlinehd: %w", err)
			}
			for _, i := range idx {
				if epoch == 0 {
					c.onePass(hs[i], y[i], 1, scores, norms)
				} else {
					c.update(hs[i], y[i], 1, scores, norms)
				}
			}
			continue
		}
		for i := range hs {
			scale := 1.0
			if opt.Weights != nil {
				scale = float64(n) * opt.Weights[i]
			}
			if scale == 0 {
				continue
			}
			if epoch == 0 {
				c.onePass(hs[i], y[i], scale, scores, norms)
			} else {
				c.update(hs[i], y[i], scale, scores, norms)
			}
		}
	}
	return nil
}

// update applies the OnlineHD adaptive rule for one sample: nothing when
// the prediction is already correct; otherwise pull the true class toward
// h by lr*(1-delta_true) and push the mispredicted class away by
// lr*(1-delta_pred), both scaled by the sample weight. norms are the
// current class norms; update recomputes those of the classes it moves.
// It reports whether the class memory changed, so streaming callers can
// skip the version bump (and the downstream re-quantization it triggers)
// on a no-op.
//
//hd:mutator writes Class under the caller's write lock; the version bump is the caller's obligation
func (c *HVClassifier) update(h hdc.Vector, label int, scale float64, scores, norms []float64) bool {
	cosines(h, c.Class, norms, scores)
	pred := argmax(scores)
	if pred == label {
		return false
	}
	c.Class[label].BundleScaled(h, c.LR*scale*(1-scores[label]))
	c.Class[pred].BundleScaled(h, -c.LR*scale*(1-scores[pred]))
	norms[label], norms[pred] = hdc.Norm(c.Class[label]), hdc.Norm(c.Class[pred])
	return true
}

// onePass applies the initial single-pass rule: every sample is added to
// its class proportionally to its novelty (1 - delta_true), and on a
// misprediction the winning class is pushed away. Unlike the adaptive
// rule it also reinforces correctly classified samples, which seeds the
// class geometry the refinement epochs then sharpen. Like update it
// keeps norms current for the classes it moves.
//
//hd:mutator writes Class under the caller's write lock; the version bump is the caller's obligation
func (c *HVClassifier) onePass(h hdc.Vector, label int, scale float64, scores, norms []float64) {
	cosines(h, c.Class, norms, scores)
	pred := argmax(scores)
	c.Class[label].BundleScaled(h, c.LR*scale*(1-scores[label]))
	norms[label] = hdc.Norm(c.Class[label])
	if pred != label {
		c.Class[pred].BundleScaled(h, -c.LR*scale*(1-scores[pred]))
		norms[pred] = hdc.Norm(c.Class[pred])
	}
}

// Update applies one streaming OnlineHD adaptive step for a single
// encoded sample under the write lock — the continual-learning entry
// point. Concurrent scorers (PinClass, PredictBatch and the engine paths
// built on them) block for the duration of the step and then observe the
// fully applied update; the version counter is bumped only when the class
// memory actually changed, so correctly classified samples do not
// invalidate derived state (norm caches, binary quantizations). The step
// scores against the cached class norms when they are current and
// leaves the cache current, with the moved classes' norms recomputed.
// It reports whether the memory changed.
func (c *HVClassifier) Update(h hdc.Vector, label int) (bool, error) {
	if len(h) != c.Dim {
		return false, fmt.Errorf("onlinehd: update sample has dim %d, want %d", len(h), c.Dim)
	}
	if label < 0 || label >= c.Classes {
		return false, fmt.Errorf("onlinehd: update label %d outside [0,%d)", label, c.Classes)
	}
	// One allocation holds the scores and a private copy of the norms:
	// the cached snapshot is immutable, so the copy is what update
	// rewrites and what becomes the next snapshot.
	buf := make([]float64, 2*c.Classes)
	scores, norms := buf[:c.Classes], buf[c.Classes:]
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.norms != nil && c.normVer == c.version {
		copy(norms, c.norms)
	} else {
		classNorms(c.Class, norms)
	}
	moved := c.update(h, label, 1, scores, norms)
	if moved {
		c.version++
	}
	c.norms, c.normVer = norms, c.version
	return moved, nil
}

// PredictBatch classifies a batch of encoded samples sequentially, reusing
// one scratch buffer and the cached class norms. The class vectors are
// pinned for the whole batch, so every row scores against one consistent
// memory.
func (c *HVClassifier) PredictBatch(hs []hdc.Vector) []int {
	out := make([]int, len(hs))
	if len(hs) == 0 {
		return out
	}
	norms, unpin := c.PinClass()
	defer unpin()
	scores := make([]float64, c.Classes)
	for i, h := range hs {
		cosines(h, c.Class, norms, scores)
		out[i] = argmax(scores)
	}
	return out
}

// Clone returns a deep copy (used by fault-injection experiments so trials
// never corrupt the trained model). Cache state is not carried over.
func (c *HVClassifier) Clone() *HVClassifier {
	out := &HVClassifier{Dim: c.Dim, Classes: c.Classes, LR: c.LR, Class: make([]hdc.Vector, c.Classes)}
	c.mu.RLock()
	defer c.mu.RUnlock()
	for i, cv := range c.Class {
		out.Class[i] = cv.Clone()
	}
	return out
}
