//go:build !race

// The race detector makes sync.Pool drop items at random, so the seeded
// encoder's pooled kernel scratch reallocates and allocation pins hold
// only in a normal build.

package infer

import (
	"testing"

	"boosthd/internal/boosthd"
	"boosthd/internal/encoding"
)

// TestPredictBatchOneRowAllocs pins the lone-caller cost of the packed
// binary path: a one-row PredictBatch on a seeded ten-learner model
// sizes its query scratch to that row instead of a full 32-row block.
func TestPredictBatchOneRowAllocs(t *testing.T) {
	m, X, y := fixture(t, 1000, 10)
	cfg := m.Cfg
	cfg.Projection = encoding.ProjSeeded
	seeded, err := boosthd.Train(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bm, err := Quantize(seeded)
	if err != nil {
		t.Fatal(err)
	}
	row := X[:1]
	if _, err := bm.PredictBatch(row); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := bm.PredictBatch(row); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("one-row binary PredictBatch: %v allocs", allocs)
	if allocs > 9 {
		t.Fatalf("one-row binary PredictBatch allocates %v times, want <= 9", allocs)
	}
}
