package boosthd

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"boosthd/internal/encoding"
	"boosthd/internal/faults"
	"boosthd/internal/hdc"
)

// TestNonFiniteLearnerSitsOut plants a NaN, then an infinity, in one
// learner's class memory. Float predictions, single row and batch, must
// equal those of the same model with that learner's alpha zeroed, for
// both aggregation rules.
func TestNonFiniteLearnerSitsOut(t *testing.T) {
	for _, agg := range []Aggregation{Score, Vote} {
		for _, bad := range []float64{math.NaN(), math.Inf(1)} {
			m, queries := regressionFixture(t, agg, 4)
			const victim = 2
			ref := m.AlphaView()
			ref.Alphas[victim] = 0
			m.Learners[victim].MutateClass(func(class []hdc.Vector) { class[1][5] = bad })

			want, err := ref.PredictBatch(queries)
			if err != nil {
				t.Fatal(err)
			}
			got, err := m.PredictBatch(queries)
			if err != nil {
				t.Fatal(err)
			}
			seen := map[int]bool{}
			for i := range queries {
				single, err := m.PredictBatch(queries[i : i+1])
				if err != nil {
					t.Fatal(err)
				}
				if got[i] != want[i] || single[0] != want[i] {
					t.Fatalf("agg=%v planted %v: row %d predicts %d (batch) / %d (single), zero-alpha model %d",
						agg, bad, i, got[i], single[0], want[i])
				}
				seen[want[i]] = true
			}
			if len(seen) < 2 {
				t.Fatalf("agg=%v: the fixture predicts only %v, so the comparison proves little", agg, seen)
			}
		}
	}
}

// TestHealEncodersNamesHitLearners injects plane faults into a seeded
// model with one shared encoder and with per-learner encoders. Every
// learner HealEncoders does not name encoded exactly as before the
// faults; after the heal every encoding is bit-identical to the
// pristine one, and a second check finds nothing.
func TestHealEncodersNamesHitLearners(t *testing.T) {
	for _, spread := range []float64{0, 4} {
		rng := rand.New(rand.NewSource(5))
		X := make([][]float64, 90)
		y := make([]int, len(X))
		for i := range X {
			X[i] = []float64{rng.NormFloat64() + float64(i%3), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(),
				rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
			y[i] = i % 3
		}
		cfg := DefaultConfig(1200, 6, 3)
		cfg.Epochs = 2
		cfg.GammaSpread = spread
		cfg.Projection = encoding.ProjSeeded
		m, err := Train(X, y, cfg)
		if err != nil {
			t.Fatal(err)
		}
		pristine, err := m.Enc.EncodeBatch(X[:8])
		if err != nil {
			t.Fatal(err)
		}
		inj, err := faults.NewInjector(3e-6, rand.New(rand.NewSource(11)))
		if err != nil {
			t.Fatal(err)
		}
		flips := 0
		for flips == 0 {
			flips = m.InjectEncoderFaults(inj)
		}
		faulty, err := m.Enc.EncodeBatch(X[:8])
		if err != nil {
			t.Fatal(err)
		}
		hit := m.HealEncoders()
		if len(hit) == 0 || len(hit) > flips {
			t.Fatalf("spread=%v: %d flips, heal named learners %v", spread, flips, hit)
		}
		for i, seg := range m.Segments() {
			if slices.Contains(hit, i) {
				continue
			}
			for r := range pristine {
				for k := seg[0]; k < seg[1]; k++ {
					if math.Float64bits(faulty[r][k]) != math.Float64bits(pristine[r][k]) {
						t.Fatalf("spread=%v: learner %d read a faulty value at dim %d but was not named in %v", spread, i, k, hit)
					}
				}
			}
		}
		if again := m.HealEncoders(); again != nil {
			t.Fatalf("spread=%v: second heal named %v", spread, again)
		}
		healed, err := m.Enc.EncodeBatch(X[:8])
		if err != nil {
			t.Fatal(err)
		}
		for r := range pristine {
			for k := range pristine[r] {
				if math.Float64bits(healed[r][k]) != math.Float64bits(pristine[r][k]) {
					t.Fatalf("spread=%v: healed encoding differs at row %d dim %d", spread, r, k)
				}
			}
		}
	}
}
