package infer

import (
	"runtime"
	"sync"
	"testing"
)

// TestIncrementalRequantization: a refresh after a single learner moved
// must re-threshold only that learner, reusing every unchanged
// learner's immutable planes from the previous snapshot.
func TestIncrementalRequantization(t *testing.T) {
	m, X, y := fixture(t, 480, 4)
	bm, err := Quantize(m)
	if err != nil {
		t.Fatal(err)
	}
	before := bm.snap.Load()

	// Stream single samples until exactly learner 0 has moved (others
	// may move too — find a sample that moved a strict subset).
	moved := -1
	for k := 0; k < len(X); k++ {
		vs := make([]uint64, len(m.Learners))
		for i, l := range m.Learners {
			vs[i] = l.Version()
		}
		if _, err := m.Update(X[k], y[k]); err != nil {
			t.Fatal(err)
		}
		changed := []int{}
		for i, l := range m.Learners {
			if l.Version() != vs[i] {
				changed = append(changed, i)
			}
		}
		if len(changed) > 0 && len(changed) < len(m.Learners) {
			moved = changed[0]
			break
		}
		if len(changed) == 0 {
			continue
		}
		// All learners moved: refresh and keep looking for a partial move.
		bm.Refresh()
		before = bm.snap.Load()
	}
	if moved < 0 {
		t.Skip("stream never moved a strict subset of learners")
	}
	bm.Refresh()
	after := bm.snap.Load()
	for i := range m.Learners {
		same := &after.planes[i][0] == &before.planes[i][0]
		if after.versions[i] == before.versions[i] && !same {
			t.Errorf("learner %d unchanged but re-quantized", i)
		}
		if after.versions[i] != before.versions[i] && same {
			t.Errorf("learner %d changed but kept stale planes", i)
		}
	}
}

// TestBinaryServingDuringStreamingUpdates hammers the packed-binary
// batch pipeline (whose syncQuantization path re-thresholds the class
// memories) while streaming Model.Update calls mutate the float
// learners underneath — run with -race. Each learner quantizes under
// its read lock against the writer's per-learner write locks, so every
// snapshot is coherent; the version counters guarantee serving never
// sticks to a stale quantization once the stream stops.
func TestBinaryServingDuringStreamingUpdates(t *testing.T) {
	if prev := runtime.GOMAXPROCS(0); prev < 4 {
		runtime.GOMAXPROCS(4)
		defer runtime.GOMAXPROCS(prev)
	}
	m, X, y := fixture(t, 480, 4)
	eng, err := NewBinaryEngine(m)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				pred, err := eng.PredictBatch(X[:48])
				if err != nil {
					t.Error(err)
					return
				}
				for _, p := range pred {
					if p < 0 || p >= m.Cfg.Classes {
						t.Errorf("prediction %d out of range", p)
						return
					}
				}
			}
		}(g)
	}
	for k := 0; k < 300; k++ {
		if _, err := m.Update(X[k%len(X)], y[k%len(X)]); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()

	// After the stream quiesces, the next predict must serve the final
	// memory: one more sync leaves nothing stale.
	if _, err := eng.PredictBatch(X[:1]); err != nil {
		t.Fatal(err)
	}
	if eng.Binary().Stale() {
		t.Fatal("binary model still stale after post-stream predict")
	}
}
