package boosthd

import (
	"math/rand"
	"testing"

	"boosthd/internal/faults"
	"boosthd/internal/hdc"
)

// TestPartitionRemainderDistribution checks the contract partition
// documents: contiguous cover of [0, totalDim), sizes differing by at
// most one, the first totalDim%n segments carrying the extra dimension.
func TestPartitionRemainderDistribution(t *testing.T) {
	for _, tc := range []struct{ total, n int }{
		{10, 10}, {11, 10}, {19, 10}, {10000, 10}, {10007, 10}, {7, 3}, {64, 1},
	} {
		segs := partition(tc.total, tc.n)
		if len(segs) != tc.n {
			t.Fatalf("partition(%d,%d): %d segments", tc.total, tc.n, len(segs))
		}
		base := tc.total / tc.n
		rem := tc.total % tc.n
		lo := 0
		for i, s := range segs {
			if s.lo != lo {
				t.Fatalf("partition(%d,%d): segment %d starts at %d, want %d", tc.total, tc.n, i, s.lo, lo)
			}
			size := s.hi - s.lo
			want := base
			if i < rem {
				want++
			}
			if size != want {
				t.Fatalf("partition(%d,%d): segment %d size %d, want %d", tc.total, tc.n, i, size, want)
			}
			lo = s.hi
		}
		if lo != tc.total {
			t.Fatalf("partition(%d,%d): covers [0,%d), want [0,%d)", tc.total, tc.n, lo, tc.total)
		}
	}
}

// TestPartitionSingleLearnerDegenerate checks the NL=1 case owns the
// whole space.
func TestPartitionSingleLearnerDegenerate(t *testing.T) {
	segs := partition(4096, 1)
	if len(segs) != 1 || segs[0].lo != 0 || segs[0].hi != 4096 {
		t.Fatalf("partition(4096,1) = %+v", segs)
	}
}

// TestTrainRejectsTotalDimBelowLearners pins the config validation: a
// partition cannot hand a learner zero dimensions.
func TestTrainRejectsTotalDimBelowLearners(t *testing.T) {
	X := [][]float64{{1, 2}, {2, 1}, {0, 1}, {1, 0}}
	y := []int{0, 1, 0, 1}
	cfg := DefaultConfig(5, 10, 2)
	if _, err := Train(X, y, cfg); err == nil {
		t.Fatal("Train must reject TotalDim < NumLearners")
	}
	// The boundary is inclusive: TotalDim == NumLearners is legal.
	cfg = DefaultConfig(10, 10, 2)
	cfg.Epochs = 1
	if _, err := Train(X, y, cfg); err != nil {
		t.Fatalf("TotalDim == NumLearners should train: %v", err)
	}
}

// TestInjectClassFaultsInvalidatesNormCache mutates class vectors through
// the fault injector and checks scoring tracks the corrupted memory
// instead of the cached norms — i.e. the faulted model predicts exactly
// like a fresh model built from the same corrupted class vectors.
func TestInjectClassFaultsInvalidatesNormCache(t *testing.T) {
	m, queries := regressionFixture(t, Score, 0)
	// Prime every learner's norm cache.
	if _, err := m.PredictBatch(queries); err != nil {
		t.Fatal(err)
	}
	// Corrupt aggressively so stale norms would flip predictions.
	inj, err := faults.NewInjector(0.01, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	if flips := m.InjectClassFaults(inj); flips == 0 {
		t.Fatal("expected bit flips at pb=0.01")
	}
	got, err := m.PredictBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	// Reference: legacy path recomputes norms from scratch every call.
	diff := 0
	for i, x := range queries {
		h, err := m.Enc.Encode(x)
		if err != nil {
			t.Fatal(err)
		}
		if want := legacyPredictEncoded(m, h); got[i] != want {
			diff++
		}
	}
	if diff != 0 {
		t.Fatalf("%d/%d predictions used stale cached norms after fault injection", diff, len(queries))
	}
}

// TestInvalidateCachesAfterDirectMutation covers class memory moved in
// place: scaling each learner's class vectors through MutateClass must
// reach the float path's cached norms, so predictions match the legacy
// per-row reference on the scaled memory.
func TestInvalidateCachesAfterDirectMutation(t *testing.T) {
	m, queries := regressionFixture(t, Score, 0)
	if _, err := m.PredictBatch(queries); err != nil {
		t.Fatal(err)
	}
	// Scale each class by a different factor: with stale cached norms the
	// cosine denominators no longer match the stored vectors, so the
	// per-class rankings (and hence predictions) would come out wrong.
	for _, l := range m.Learners {
		l.MutateClass(func(class []hdc.Vector) {
			for c, cv := range class {
				factor := 0.2 + 3*float64(c)
				for j := range cv {
					cv[j] *= factor
				}
			}
		})
	}
	got, err := m.PredictBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range queries {
		h, err := m.Enc.Encode(x)
		if err != nil {
			t.Fatal(err)
		}
		if want := legacyPredictEncoded(m, h); got[i] != want {
			t.Fatalf("row %d: stale norms after MutateClass: got %d want %d", i, got[i], want)
		}
	}
}
