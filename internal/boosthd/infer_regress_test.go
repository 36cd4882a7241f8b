package boosthd

import (
	"math/rand"
	"testing"

	"boosthd/internal/ensemble"
	"boosthd/internal/hdc"
	"boosthd/internal/onlinehd"
)

// legacyScores reimplements the pre-engine HVClassifier.Scores: query norm
// computed once, class norms recomputed on every call, cosine per class.
func legacyScores(l *onlinehd.HVClassifier, h hdc.Vector) []float64 {
	s := make([]float64, l.Classes)
	hn := hdc.Norm(h)
	if hn == 0 {
		return s
	}
	for c, cv := range l.Class {
		cn := hdc.Norm(cv)
		if cn == 0 {
			continue
		}
		s[c] = hdc.Dot(h, cv) / (hn * cn)
	}
	return s
}

// legacyPredictEncoded reimplements the pre-engine inference path
// verbatim: slice the encoding per learner, score each slice with fresh
// norms, and aggregate with the ensemble helpers.
func legacyPredictEncoded(m *Model, h hdc.Vector) int {
	switch m.Cfg.Aggregation {
	case Score:
		scores := make([][]float64, len(m.Learners))
		for i, l := range m.Learners {
			scores[i] = legacyScores(l, h[m.segs[i].lo:m.segs[i].hi])
		}
		return scoreAggregate(scores, m.Alphas, m.Cfg.Classes)
	default:
		votes := make([]int, len(m.Learners))
		for i, l := range m.Learners {
			s := legacyScores(l, h[m.segs[i].lo:m.segs[i].hi])
			best := 0
			for c := 1; c < len(s); c++ {
				if s[c] > s[best] {
					best = c
				}
			}
			votes[i] = best
		}
		return ensemble.VoteAggregate(votes, m.Alphas, m.Cfg.Classes)
	}
}

// regressionFixture trains a small fixed-seed ensemble on deterministic
// synthetic rows and returns held-out query rows.
func regressionFixture(t *testing.T, agg Aggregation, gammaSpread float64) (*Model, [][]float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(424242))
	const n, features, classes = 240, 12, 3
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		c := i % classes
		row := make([]float64, features)
		for j := range row {
			row[j] = float64(c)*0.9 + rng.NormFloat64()
		}
		X[i] = row
		y[i] = c
	}
	cfg := DefaultConfig(640, 8, classes)
	cfg.Epochs = 4
	cfg.Seed = 99
	cfg.Aggregation = agg
	cfg.GammaSpread = gammaSpread
	m, err := Train(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	queries := make([][]float64, 150)
	for i := range queries {
		row := make([]float64, features)
		for j := range row {
			row[j] = rng.NormFloat64() * 1.4
		}
		queries[i] = row
	}
	return m, queries
}

// TestInferenceMatchesLegacyPath pins the engine refactor: the fused
// single-pass scorer must produce exactly the predictions of the
// historical slice-per-learner path on a fixed-seed fixture, for both
// aggregation rules and both encoder stacks.
func TestInferenceMatchesLegacyPath(t *testing.T) {
	for _, tc := range []struct {
		name   string
		agg    Aggregation
		spread float64
	}{
		{"score/multi-scale", Score, 4},
		{"score/single-scale", Score, 0},
		{"vote/multi-scale", Vote, 4},
		{"vote/single-scale", Vote, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, queries := regressionFixture(t, tc.agg, tc.spread)
			batch, err := m.PredictBatch(queries)
			if err != nil {
				t.Fatal(err)
			}
			for i, x := range queries {
				h, err := m.Enc.Encode(x)
				if err != nil {
					t.Fatal(err)
				}
				legacy := legacyPredictEncoded(m, h)
				if got := m.PredictEncoded(h); got != legacy {
					t.Fatalf("row %d: PredictEncoded %d != legacy %d", i, got, legacy)
				}
				single, err := m.Predict(x)
				if err != nil {
					t.Fatal(err)
				}
				if single != legacy {
					t.Fatalf("row %d: Predict %d != legacy %d", i, single, legacy)
				}
				if batch[i] != legacy {
					t.Fatalf("row %d: PredictBatch %d != legacy %d", i, batch[i], legacy)
				}
			}
		})
	}
}

// TestPredictBatchBlockBoundaries runs batch sizes straddling the
// row-block and 4-row register-block boundaries and checks every size
// agrees with single-row prediction.
func TestPredictBatchBlockBoundaries(t *testing.T) {
	m, queries := regressionFixture(t, Score, 4)
	for _, n := range []int{1, 2, 3, 4, 5, 31, 32, 33, 63, 65} {
		sub := queries[:n]
		batch, err := m.PredictBatch(sub)
		if err != nil {
			t.Fatal(err)
		}
		for i, x := range sub {
			single, err := m.Predict(x)
			if err != nil {
				t.Fatal(err)
			}
			if batch[i] != single {
				t.Fatalf("n=%d row %d: batch %d != single %d", n, i, batch[i], single)
			}
		}
	}
}

// scoreAggregate is the legacy soft-vote combiner:
// argmax_k sum_i alpha_i * scores_i[k].
func scoreAggregate(scores [][]float64, alphas []float64, classes int) int {
	agg := make([]float64, classes)
	for i, s := range scores {
		if i >= len(alphas) {
			break
		}
		for k := 0; k < classes && k < len(s); k++ {
			agg[k] += alphas[i] * s[k]
		}
	}
	best := 0
	for k := 1; k < classes; k++ {
		if agg[k] > agg[best] {
			best = k
		}
	}
	return best
}
