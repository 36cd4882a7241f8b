// Package infer is the serving layer over trained BoostHD ensembles: one
// Engine type that fronts the fused float batch pipeline and, after
// Quantize, a packed-binary backend that stores the model as bit vectors
// and scores queries with XOR/popcount Hamming similarity — the
// representation wearable-class hardware executes natively.
//
// The float backend reproduces the historical inference path: scoring is
// arithmetically bit-identical given the same encodings (pinned by the
// legacy-path regression test), and the encoder's activation was
// rewritten through an exact trigonometric identity, so encodings agree
// to floating-point rounding. The binary backend trades a controlled
// amount of accuracy for an order of magnitude less model memory and
// word-parallel scoring, the deployment point of the paper's Section V
// discussion.
package infer

import (
	"fmt"

	"boosthd/internal/boosthd"
	"boosthd/internal/obs"
)

// Backend selects the model representation an Engine scores with.
type Backend int

const (
	// Float scores full-precision class hypervectors with cosine
	// similarity — the paper's reference inference rule.
	Float Backend = iota
	// PackedBinary scores thresholded bit-vector class memories with
	// Hamming similarity over packed 64-bit words.
	PackedBinary
)

// String names the backend.
func (b Backend) String() string {
	switch b {
	case Float:
		return "float"
	case PackedBinary:
		return "packed-binary"
	default:
		return fmt.Sprintf("Backend(%d)", int(b))
	}
}

// Engine serves predictions from a trained BoostHD ensemble through a
// selected backend. An engine is a boosthd model view — which holds the
// alphas and the per-learner dimension masks — plus, on the packed-binary
// backend, a BinaryModel whose plane snapshot views share. Engines are
// cheap to construct; the expensive state (quantized class memories)
// lives in the snapshot Quantize builds.
type Engine struct {
	model   *boosthd.Model
	backend Backend
	bin     *BinaryModel // the packed-binary snapshot; nil on Float
	scorer  scorer       // model on Float, bin on PackedBinary
}

// scorer is the serving surface both backends implement: *boosthd.Model
// scores float class memory, *BinaryModel its packed planes. Every
// predict and evaluate path of Engine runs through it.
type scorer interface {
	PredictBatchStaged(X [][]float64, stages *obs.StageTimes) ([]int, error)
	EvaluateLearners(X [][]float64, y []int) ([]float64, error)
}

// NewEngine returns a float-backend engine over m.
func NewEngine(m *boosthd.Model) *Engine {
	return &Engine{model: m, backend: Float, scorer: m}
}

// NewBinaryEngine quantizes m and returns a packed-binary engine.
func NewBinaryEngine(m *boosthd.Model) (*Engine, error) {
	bin, err := Quantize(m)
	if err != nil {
		return nil, err
	}
	return NewEngineFromBinary(bin), nil
}

// NewEngineFromBinary wraps a binary model — quantized or cold-loaded —
// in a packed-binary serving engine. Over a cold-loaded snapshot the
// engine's float model is the zeroed shell, which no predict path scores.
func NewEngineFromBinary(bm *BinaryModel) *Engine {
	return &Engine{model: bm.model, backend: PackedBinary, bin: bm, scorer: bm}
}

// Backend reports which representation the engine scores with.
func (e *Engine) Backend() Backend { return e.backend }

// Binary returns the quantized model backing a PackedBinary engine, or
// nil for a float engine.
func (e *Engine) Binary() *BinaryModel { return e.bin }

// Model returns the underlying float ensemble.
func (e *Engine) Model() *boosthd.Model { return e.model }

// InputDim returns the raw feature width the engine's encoders expect.
func (e *Engine) InputDim() int { return e.model.InputDim() }

// PredictBatch classifies rows through the backend's batch pipeline.
func (e *Engine) PredictBatch(X [][]float64) ([]int, error) {
	return e.PredictBatchStaged(X, nil)
}

// PredictBatchStaged is PredictBatch with per-phase accounting: when
// stages is non-nil the backend adds its encode and score wall time to
// it. The serving layer passes a stack-local StageTimes per batch and
// feeds the result into the observability histograms; a nil stages
// costs one branch per 32-row block.
func (e *Engine) PredictBatchStaged(X [][]float64, stages *obs.StageTimes) ([]int, error) {
	return e.scorer.PredictBatchStaged(X, stages)
}

// Evaluate returns plain accuracy on a labeled set through the selected
// backend's batch pipeline.
func (e *Engine) Evaluate(X [][]float64, y []int) (float64, error) {
	if len(X) != len(y) || len(y) == 0 {
		return 0, fmt.Errorf("infer: bad evaluation set (%d rows, %d labels)", len(X), len(y))
	}
	pred, err := e.PredictBatch(X)
	if err != nil {
		return 0, err
	}
	correct := 0
	for i := range pred {
		if pred[i] == y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(y)), nil
}

// EvaluateLearners scores each weak learner standalone on a labeled set
// through the serving kernels of the backend that actually serves — the
// reliability canary probe. The binary backend scores its quantized
// planes (the memory that could be corrupted), the float backend the
// float class vectors; both honour the view's dimension masks.
func (e *Engine) EvaluateLearners(X [][]float64, y []int) ([]float64, error) {
	return e.scorer.EvaluateLearners(X, y)
}

// view serves v, a boosthd view of e's model, through e's backend. It is
// the one place that asks which backend an engine has: a float view is
// the model itself, and a packed-binary view overlays e's plane snapshot,
// re-quantizing only the learners listed in requantize from v's own
// float memory (see BinaryModel.overlay).
func (e *Engine) view(v *boosthd.Model, requantize []int) *Engine {
	if e.bin == nil {
		return NewEngine(v)
	}
	return NewEngineFromBinary(e.bin.overlay(v, requantize))
}

// Remask builds the serving engine for a quarantine mask: an
// alpha-masked view of base — the model whose Alphas carry the true
// boosting weights, so learners can be unmasked again after repair —
// served through cur's backend. masked[i] true zeroes learner i's vote,
// and the scoring paths never touch that learner's (possibly corrupted)
// memory. The expensive backend state is shared, not rebuilt: the view
// shares base's live learners, and a packed-binary view additionally
// shares cur's current quantized snapshot, so a quarantine never
// re-thresholds from float memory it has no reason to trust. The result
// is the reliability subsystem's swap unit: hand it to serve.Server.Swap
// and requests atomically stop counting the quarantined learners.
func Remask(cur *Engine, base *boosthd.Model, masked []bool) (*Engine, error) {
	return RemaskDims(cur, base, masked, nil)
}

// RemaskDims is the two-tier quarantine rebuild: masked[i] true zeroes
// learner i's whole vote (as Remask), while healthy[i] non-nil keeps
// learner i voting over only its trusted dimensions — the packed-binary
// path ANDs the mask into the confidence masks with popcount
// renormalization, the float path zeroes the masked class components
// with matching norms. healthy is learner-major packed bitmasks over
// each learner's local dimensions; nil (outer or entry) trusts all.
// Like Remask, backend state is shared, never rebuilt or re-trusted.
func RemaskDims(cur *Engine, base *boosthd.Model, masked []bool, healthy [][]uint64) (*Engine, error) {
	view, err := base.MaskedView(masked, healthy)
	if err != nil {
		return nil, fmt.Errorf("infer: remask: %w", err)
	}
	return cur.view(view, nil), nil
}

// WithDelta returns the tenant engine for d over this engine's model:
// the float view shares the encoder stack and every non-overridden
// learner, and a packed-binary engine additionally shares this engine's
// quantized planes, quantizing only the delta's overrides. The view
// composes with quarantine as boosthd.Model.WithDelta specifies.
// Predictions are bit-for-bit identical to an engine built over a fully
// materialized per-tenant model on both backends.
func (e *Engine) WithDelta(d *boosthd.Delta) (*Engine, error) {
	view, err := e.model.WithDelta(d)
	if err != nil {
		return nil, fmt.Errorf("infer: with delta: %w", err)
	}
	return e.view(view, d.Indexes()), nil
}
