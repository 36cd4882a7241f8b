package boosthd

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"boosthd/internal/faults"
)

// TestFloatConcurrentServingWithFaults hammers the float batch pipeline
// from several goroutines while fault injection mutates the class vectors
// underneath. Pinning must keep every batch on a coherent (vectors, norms)
// pair — run with -race to catch torn float reads. GOMAXPROCS is forced up
// so the mutator genuinely overlaps the scorers even on single-CPU boxes.
func TestFloatConcurrentServingWithFaults(t *testing.T) {
	if prev := runtime.GOMAXPROCS(0); prev < 4 {
		runtime.GOMAXPROCS(4)
		defer runtime.GOMAXPROCS(prev)
	}
	m, queries := regressionFixture(t, Score, 0)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := m.PredictBatch(queries[:40]); err != nil {
					t.Error(err)
					return
				}
				h, err := m.Enc.Encode(queries[0])
				if err != nil {
					t.Error(err)
					return
				}
				predict, release := m.EncodedPredictor()
				predict(h)
				release()
			}
		}()
	}
	rng := rand.New(rand.NewSource(77))
	for k := 0; k < 20; k++ {
		inj, err := faults.NewInjector(0.001, rng)
		if err != nil {
			t.Fatal(err)
		}
		m.InjectClassFaults(inj)
	}
	close(stop)
	wg.Wait()
}

// TestEncodedPredictorMatchesLegacy pins the hoisted scoring path to
// the legacy slice-per-learner reference: same predictions, with norms
// and scratch reused across calls, and mutators unblocked after release.
func TestEncodedPredictorMatchesLegacy(t *testing.T) {
	m, queries := regressionFixture(t, Score, 0)
	predict, release := m.EncodedPredictor()
	for i, x := range queries {
		h, err := m.Enc.Encode(x)
		if err != nil {
			t.Fatal(err)
		}
		if got, ref := predict(h), legacyPredictEncoded(m, h); got != ref {
			t.Fatalf("row %d: EncodedPredictor %d != legacy %d", i, got, ref)
		}
	}
	release()
	// After release the class memory is unpinned: mutation must not block.
	inj, err := faults.NewInjector(0.01, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if flips := m.InjectClassFaults(inj); flips == 0 {
		t.Fatal("expected bit flips at pb=0.01")
	}
	// And a fresh predictor sees the mutated memory (norms re-pinned).
	predict2, release2 := m.EncodedPredictor()
	defer release2()
	for i, x := range queries {
		h, err := m.Enc.Encode(x)
		if err != nil {
			t.Fatal(err)
		}
		if got, ref := predict2(h), legacyPredictEncoded(m, h); got != ref {
			t.Fatalf("row %d after faults: EncodedPredictor %d != legacy %d", i, got, ref)
		}
	}
}
