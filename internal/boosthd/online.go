// This file holds the streaming continual-learning entry points:
// incremental per-learner updates that are safe against concurrent
// serving, and off-path refits that rebuild the ensemble from a sample
// buffer. Together they are the model-side half of internal/trainer —
// HD class memories are cheap to update incrementally (the OnlineHD
// line of work), so a deployed model can follow a drifting signal
// instead of freezing at Train time.

package boosthd

import (
	"fmt"

	"boosthd/internal/ensemble"
	"boosthd/internal/hdc"
)

// Update applies one streaming OnlineHD step to every weak learner: the
// sample is encoded once through the model's encoder stack and each
// learner takes an adaptive update on its dimension segment under its
// write lock. Serving can stay live during the call — batch scorers pin
// the learners (read locks) and the per-learner writes interleave with
// them without tearing; learners are updated in index order and the
// write path holds at most one learner's lock at a time, so concurrent
// pins cannot deadlock. Learner versions bump only where class memory
// actually changed, so the packed-binary backend re-quantizes exactly
// the learners the sample moved. It returns the indexes of the learners
// whose class memory moved — the list a trainer hands to an attached
// reliability monitor so the mutation can be re-signed instead of read
// as corruption.
func (m *Model) Update(x []float64, label int) (changed []int, err error) {
	if label < 0 || label >= m.Cfg.Classes {
		return nil, fmt.Errorf("boosthd: update label %d outside [0,%d)", label, m.Cfg.Classes)
	}
	if len(x) != m.inputDim {
		return nil, fmt.Errorf("boosthd: update sample has %d features, model expects %d", len(x), m.inputDim)
	}
	h, err := m.Enc.Encode(x)
	if err != nil {
		return nil, fmt.Errorf("boosthd: %w", err)
	}
	for i, l := range m.Learners {
		seg := m.segs[i]
		moved, err := l.Update(h[seg.lo:seg.hi], label)
		if err != nil {
			return changed, fmt.Errorf("boosthd: learner %d: %w", i, err)
		}
		if moved {
			changed = append(changed, i)
		}
	}
	return changed, nil
}

// UpdateBatch applies one streaming OnlineHD step per row, encoding the
// batch through the blocked batch kernel in bounded row blocks instead
// of paying a scalar projection sweep per sample — the ingest path for
// batched observation streams. Updates are applied in row order with
// the same per-learner locking as Update, so serving stays live
// throughout. It reports how many rows moved at least one learner and
// which learners moved at all (for the trainer→monitor re-sign handoff).
func (m *Model) UpdateBatch(X [][]float64, y []int) (changedRows int, changed []int, err error) {
	if len(X) != len(y) {
		return 0, nil, fmt.Errorf("boosthd: update batch %d rows vs %d labels", len(X), len(y))
	}
	for i, row := range X {
		if y[i] < 0 || y[i] >= m.Cfg.Classes {
			return 0, nil, fmt.Errorf("boosthd: update label %d at row %d outside [0,%d)", y[i], i, m.Cfg.Classes)
		}
		if len(row) != m.inputDim {
			return 0, nil, fmt.Errorf("boosthd: update row %d has %d features, model expects %d", i, len(row), m.inputDim)
		}
	}
	D := m.Cfg.TotalDim
	rows := predictBatchRows
	if len(X) < rows {
		rows = len(X)
	}
	movedLearner := make([]bool, len(m.Learners))
	buf := make([]float64, rows*D)
	finish := func() []int {
		for j, moved := range movedLearner {
			if moved {
				changed = append(changed, j)
			}
		}
		return changed
	}
	for lo := 0; lo < len(X); lo += rows {
		hi := lo + rows
		if hi > len(X) {
			hi = len(X)
		}
		if err := m.Enc.EncodeBatchInto(X[lo:hi], buf, D, 0); err != nil {
			return changedRows, finish(), fmt.Errorf("boosthd: rows [%d,%d): %w", lo, hi, err)
		}
		for i := lo; i < hi; i++ {
			h := hdc.Vector(buf[(i-lo)*D : (i-lo+1)*D])
			moved := false
			for j, l := range m.Learners {
				seg := m.segs[j]
				ch, err := l.Update(h[seg.lo:seg.hi], y[i])
				if err != nil {
					return changedRows, finish(), fmt.Errorf("boosthd: row %d learner %d: %w", i, j, err)
				}
				moved = moved || ch
				movedLearner[j] = movedLearner[j] || ch
			}
			if moved {
				changedRows++
			}
		}
	}
	return changedRows, finish(), nil
}

// AlphaView returns a model that shares this model's encoder stack and
// learner class memories — every read and write of the shared memory
// stays mediated by the HVClassifier locks — but owns a private copy of
// the boosting alphas. It is the swap unit for an alpha-only retrain:
// reweight the view's alphas over a buffer (its learners keep serving
// and keep absorbing streaming updates the whole time, so no update is
// ever lost to the swap) and install it as the serving model.
func (m *Model) AlphaView() *Model {
	return &Model{
		Cfg:      m.Cfg,
		Enc:      m.Enc,
		Learners: m.Learners,
		Alphas:   append([]float64(nil), m.Alphas...),
		segs:     m.segs,
		gamma:    m.gamma,
		inputDim: m.inputDim,
	}
}

// MaskedAlphaView returns an AlphaView with the quarantined learners'
// votes zeroed: masked[i] true sets the view's alpha_i to 0, and the
// scoring paths skip zero-alpha learners entirely (their memory — the
// reason they were masked — is never read). This is the reliability
// subsystem's quarantine unit: the ensemble's vote redundancy lets the
// remaining learners keep serving while a corrupted one is silenced,
// and because the view shares the live learners, repair work (SetClass
// restores, streaming updates) lands in memory the view serves.
func (m *Model) MaskedAlphaView(masked []bool) (*Model, error) {
	return m.MaskedView(masked, nil)
}

// MaskedView is the two-tier quarantine view: masked[i] true zeroes
// learner i's whole vote (its memory is never read), while healthy[i]
// non-nil keeps learner i voting but treats the class-memory components
// at its zero bits as zero — the dimension-granular quarantine for a
// learner where fault attribution localized the corruption to specific
// word ranges. healthy is learner-major packed bitmasks over each
// learner's local dimensions (bit d of word d/64); a nil outer slice or
// nil entry trusts every dimension. Like MaskedAlphaView, the view
// shares the live learners, so repairs land in memory the view serves.
func (m *Model) MaskedView(masked []bool, healthy [][]uint64) (*Model, error) {
	if len(masked) != len(m.Learners) {
		return nil, fmt.Errorf("boosthd: %d mask entries for %d learners", len(masked), len(m.Learners))
	}
	if healthy != nil && len(healthy) != len(m.Learners) {
		return nil, fmt.Errorf("boosthd: %d dimension masks for %d learners", len(healthy), len(m.Learners))
	}
	v := m.AlphaView()
	for i, q := range masked {
		if q {
			v.Alphas[i] = 0
		}
	}
	if healthy != nil {
		for i, hm := range healthy {
			if hm == nil {
				continue
			}
			if want := (m.Learners[i].Dim + 63) / 64; len(hm) != want {
				return nil, fmt.Errorf("boosthd: learner %d dimension mask has %d words, want %d", i, len(hm), want)
			}
		}
		v.dimMasks = healthy
	}
	return v, nil
}

// EvaluateLearners scores each weak learner standalone on a labeled set,
// learner by learner: the rows' encodings of the learner's dimension
// segment (EncodeSegment, one buffer reused across learners) go through
// the serving path's cosine step (learnerScores, under its dimension
// mask), unweighted by alpha. Each learner is pinned only while its rows
// are scored, so the encoding holds no lock. This is the reliability
// canary probe — a learner whose solo accuracy collapses is corrupted
// (or collapsed) in a way a memory checksum cannot always see, e.g.
// pre-quantization drift.
func (m *Model) EvaluateLearners(X [][]float64, y []int) ([]float64, error) {
	if len(X) == 0 || len(X) != len(y) {
		return nil, fmt.Errorf("boosthd: bad learner evaluation set (%d rows, %d labels)", len(X), len(y))
	}
	acc := make([]float64, len(m.Learners))
	scores := make([]float64, m.Cfg.Classes)
	var buf []float64
	for i := range m.Learners {
		rows, b, err := m.EncodeSegment(i, X, buf)
		if err != nil {
			return nil, fmt.Errorf("boosthd: %w", err)
		}
		buf = b
		norms, unpin := m.pinLearner(i)
		right := 0
		for r, h := range rows {
			m.learnerScores(i, h, norms, scores)
			if argmax(scores) == y[r] {
				right++
			}
		}
		unpin()
		acc[i] = float64(right) / float64(len(y))
	}
	return acc, nil
}

// Refit retrains every weak learner and the boosting alphas from scratch
// over (X, y), reusing the model's encoder stack (projections and
// bandwidths are preserved, so the refitted model lives in the same
// hyperspace and its checkpoints remain interchangeable). Given the same
// data it is deterministic in Cfg.Seed, so a hot refit is prediction-
// identical to a cold retrain of the same model shell. NOT synchronized
// with serving: learners are replaced wholesale, so run it on a Clone
// off the serving path and install the result through an engine swap.
func (m *Model) Refit(X [][]float64, y []int) error {
	if len(X) == 0 {
		return fmt.Errorf("boosthd: refit on empty training set")
	}
	if len(X) != len(y) {
		return fmt.Errorf("boosthd: refit %d rows vs %d labels", len(X), len(y))
	}
	if len(X[0]) != m.inputDim {
		return fmt.Errorf("boosthd: refit rows have %d features, model expects %d", len(X[0]), m.inputDim)
	}
	if err := m.boostFit(X, y); err != nil {
		return fmt.Errorf("boosthd: %w", err)
	}
	return nil
}

// ReweightAlphas recomputes only the boosting alphas over (X, y),
// keeping the learners' class memories as they are: the labeled set is
// run through the SAMME weighting loop with predict-only rounds, so a
// model whose learners drifted via Update gets importance weights that
// reflect each learner's current competence on current data. Like Refit
// it is NOT synchronized with serving (both scoring backends read Alphas
// without locks); call it on a model no reader holds.
func (m *Model) ReweightAlphas(X [][]float64, y []int) error {
	if len(X) == 0 || len(X) != len(y) {
		return fmt.Errorf("boosthd: bad reweight set (%d rows, %d labels)", len(X), len(y))
	}
	var buf []float64
	results, err := ensemble.Boost(y, m.Cfg.Classes, len(m.Learners),
		func(round int, w []float64) ([]int, error) {
			sub, b, err := m.EncodeSegment(round, X, buf)
			if err != nil {
				return nil, err
			}
			buf = b
			return m.Learners[round].PredictBatch(sub), nil
		})
	if err != nil {
		return fmt.Errorf("boosthd: %w", err)
	}
	for i, r := range results {
		m.Alphas[i] = r.Alpha
	}
	return nil
}
