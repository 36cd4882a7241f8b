package onlinehd

import (
	"fmt"
	"math/rand"

	"boosthd/internal/encoding"
	"boosthd/internal/hdc"
	"boosthd/internal/par"
)

// Config mirrors the paper's Section IV OnlineHD setup: nonlinear Gaussian
// encoding, learning rate 0.035, bootstrap enabled, dimensional adjustment
// via Dim.
type Config struct {
	Dim       int     // hyperspace dimensionality D
	Classes   int     // number of labels
	LR        float64 // adaptive learning rate (paper: 0.035)
	Epochs    int     // refinement passes (>= 1)
	Bootstrap bool    // weighted resampling per epoch
	Encoder   encoding.Kind
	Gamma     float64 // kernel bandwidth; <= 0 selects the median heuristic
	Seed      int64
}

// DefaultConfig returns the paper's OnlineHD hyperparameters for a given
// dimension and class count.
func DefaultConfig(dim, classes int) Config {
	return Config{
		Dim:       dim,
		Classes:   classes,
		LR:        0.035,
		Epochs:    20,
		Bootstrap: true,
		Encoder:   encoding.Nonlinear,
		Seed:      1,
	}
}

// Model is a standalone OnlineHD classifier: a nonlinear encoder plus
// class hypervectors.
type Model struct {
	Cfg Config
	Enc *encoding.Encoder
	HV  *HVClassifier
}

// Train encodes X and fits an OnlineHD model. Optional sample weights
// drive boosting integration; nil means uniform.
func Train(X [][]float64, y []int, weights []float64, cfg Config) (*Model, error) {
	if len(X) == 0 {
		return nil, fmt.Errorf("onlinehd: empty training set")
	}
	if len(X) != len(y) {
		return nil, fmt.Errorf("onlinehd: %d rows vs %d labels", len(X), len(y))
	}
	gamma := cfg.Gamma
	if gamma <= 0 {
		gamma = encoding.GammaHeuristic(X, 0.5, rand.New(rand.NewSource(cfg.Seed+55)))
	}
	enc, err := encoding.NewWithGamma(len(X[0]), cfg.Dim, cfg.Encoder, gamma, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("onlinehd: %w", err)
	}
	hv, err := NewHVClassifier(cfg.Dim, cfg.Classes, cfg.LR)
	if err != nil {
		return nil, err
	}
	hs, err := enc.EncodeBatch(X)
	if err != nil {
		return nil, fmt.Errorf("onlinehd: %w", err)
	}
	opt := FitOptions{Epochs: cfg.Epochs, Weights: weights, Bootstrap: cfg.Bootstrap}
	if cfg.Bootstrap {
		opt.Rng = rand.New(rand.NewSource(cfg.Seed + 101))
	}
	if err := hv.Fit(hs, y, opt); err != nil {
		return nil, err
	}
	return &Model{Cfg: cfg, Enc: enc, HV: hv}, nil
}

// predictBatchRows is the block size of the fused encode+score pipeline:
// each worker encodes a block of rows into its own reusable buffer and
// scores it before moving on, so memory stays bounded and encodings are
// consumed while still cache resident. It equals the encoder's row-block
// granularity so the nested EncodeBatchInto runs on the worker's own
// goroutine (one block = one work unit, no nested pool).
const predictBatchRows = encoding.BatchRowBlock

// PredictBatch classifies rows with the fused batch pipeline: blocks of
// rows are encoded into per-worker buffers (blocked projection, no
// per-row allocation) and scored against the class memory, which stays
// pinned — consistent under concurrent mutation — for the whole batch.
func (m *Model) PredictBatch(X [][]float64) ([]int, error) {
	out := make([]int, len(X))
	if len(X) == 0 {
		return out, nil
	}
	D := m.Cfg.Dim
	norms, unpin := m.HV.PinClass()
	defer unpin()
	blocks := (len(X) + predictBatchRows - 1) / predictBatchRows
	workers := par.Workers(blocks)
	type scratch struct {
		buf    []float64
		scores []float64
	}
	scratches := make([]*scratch, workers)
	err := par.ForEachWorker(blocks, func(w, blk int) error {
		sc := scratches[w]
		if sc == nil {
			sc = &scratch{
				buf:    make([]float64, predictBatchRows*D),
				scores: make([]float64, m.Cfg.Classes),
			}
			scratches[w] = sc
		}
		lo := blk * predictBatchRows
		hi := lo + predictBatchRows
		if hi > len(X) {
			hi = len(X)
		}
		if err := m.Enc.EncodeBatchInto(X[lo:hi], sc.buf, D, 0); err != nil {
			return fmt.Errorf("onlinehd: rows [%d,%d): %w", lo, hi, err)
		}
		for i := lo; i < hi; i++ {
			h := hdc.Vector(sc.buf[(i-lo)*D : (i-lo+1)*D])
			//hdlint:ignore locksafety read under the classifier's pin held for the whole batch
			cosines(h, m.HV.Class, norms, sc.scores)
			out[i] = argmax(sc.scores)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Evaluate returns plain accuracy on a labeled set.
func (m *Model) Evaluate(X [][]float64, y []int) (float64, error) {
	pred, err := m.PredictBatch(X)
	if err != nil {
		return 0, err
	}
	if len(pred) != len(y) {
		return 0, fmt.Errorf("onlinehd: %d predictions vs %d labels", len(pred), len(y))
	}
	correct := 0
	for i := range pred {
		if pred[i] == y[i] {
			correct++
		}
	}
	if len(y) == 0 {
		return 0, fmt.Errorf("onlinehd: empty evaluation set")
	}
	return float64(correct) / float64(len(y)), nil
}
