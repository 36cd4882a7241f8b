package boosthd

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"boosthd/internal/hdc"
	"boosthd/internal/onlinehd"
)

// TestUpdateValidatesAndAdapts: Update rejects bad labels/widths, and a
// stream of labeled samples from one class pulls the model toward
// predicting that class on them.
func TestUpdateValidatesAndAdapts(t *testing.T) {
	m, queries := regressionFixture(t, Score, 0)
	if _, err := m.Update(queries[0], -1); err == nil {
		t.Fatal("negative label accepted")
	}
	if _, err := m.Update(queries[0], m.Cfg.Classes); err == nil {
		t.Fatal("label past Classes accepted")
	}
	if _, err := m.Update(queries[0][:3], 0); err == nil {
		t.Fatal("short row accepted")
	}

	// Drive the model toward labeling the query set as class 1: after
	// enough adaptive steps it must get most of them right.
	const label = 1
	for pass := 0; pass < 30; pass++ {
		for _, q := range queries[:40] {
			if _, err := m.Update(q, label); err != nil {
				t.Fatal(err)
			}
		}
	}
	pred, err := m.PredictBatch(queries[:40])
	if err != nil {
		t.Fatal(err)
	}
	right := 0
	for _, p := range pred {
		if p == label {
			right++
		}
	}
	if right < 30 {
		t.Fatalf("after streaming updates only %d/40 rows follow the stream label", right)
	}
}

// TestUpdateSkipsVersionBumpWhenCorrect: a sample the model already
// classifies correctly must not invalidate derived state — its learner
// versions stay put, so norm caches and binary quantizations survive.
func TestUpdateSkipsVersionBumpWhenCorrect(t *testing.T) {
	m, queries := regressionFixture(t, Score, 0)
	q := queries[0]
	// Converge the model on this sample first.
	for i := 0; i < 50; i++ {
		if _, err := m.Update(q, 2); err != nil {
			t.Fatal(err)
		}
	}
	// Every learner that now predicts 2 on its segment must not bump.
	h, err := m.Enc.Encode(q)
	if err != nil {
		t.Fatal(err)
	}
	segs := m.Segments()
	correct := map[int]bool{}
	before := make([]uint64, len(m.Learners))
	for i, l := range m.Learners {
		before[i] = l.Version()
		correct[i] = predictSegment(l, h[segs[i][0]:segs[i][1]]) == 2
	}
	if _, err := m.Update(q, 2); err != nil {
		t.Fatal(err)
	}
	for i, l := range m.Learners {
		bumped := l.Version() != before[i]
		if correct[i] && bumped {
			t.Errorf("learner %d already correct but version bumped", i)
		}
		if !correct[i] && !bumped {
			t.Errorf("learner %d updated without version bump", i)
		}
	}
}

// TestUpdateBatchMatchesCounters: the blocked batch-ingest path
// validates like Update and its changed-row count agrees with what the
// per-row path would report on an identical clone.
func TestUpdateBatchMatchesCounters(t *testing.T) {
	m, queries := regressionFixture(t, Score, 0)
	y := make([]int, 60)
	for i := range y {
		y[i] = i % m.Cfg.Classes
	}
	if _, _, err := m.UpdateBatch(queries[:3], y[:2]); err == nil {
		t.Fatal("row/label mismatch accepted")
	}
	if _, _, err := m.UpdateBatch([][]float64{queries[0][:2]}, []int{0}); err == nil {
		t.Fatal("short row accepted")
	}
	if _, _, err := m.UpdateBatch(queries[:1], []int{m.Cfg.Classes}); err == nil {
		t.Fatal("label past Classes accepted")
	}
	changed, _, err := m.UpdateBatch(queries[:60], y)
	if err != nil {
		t.Fatal(err)
	}
	if changed <= 0 || changed > 60 {
		t.Fatalf("changed rows %d outside (0,60]", changed)
	}
}

// TestAlphaViewSharesLearners: an alpha view serves the same live class
// memories — an update through either model is visible to both — while
// its alpha vector is private.
func TestAlphaViewSharesLearners(t *testing.T) {
	m, queries := regressionFixture(t, Score, 0)
	v := m.AlphaView()
	for i, l := range v.Learners {
		if l != m.Learners[i] {
			t.Fatalf("learner %d not shared", i)
		}
	}
	v.Alphas[0] = -123
	if m.Alphas[0] == -123 {
		t.Fatal("alpha write reached the source model")
	}
	before := m.Learners[0].Version()
	// Stream enough contrarian labels through the VIEW to move learner 0.
	for pass := 0; pass < 20 && m.Learners[0].Version() == before; pass++ {
		for _, q := range queries[:20] {
			if _, err := v.Update(q, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	if m.Learners[0].Version() == before {
		t.Fatal("update through the view never reached the shared memory")
	}
}

// TestRefitDeterministic: two clones refitted on the same buffer are
// prediction-identical — the property that makes a hot refit
// interchangeable with a cold retrain.
func TestRefitDeterministic(t *testing.T) {
	m, queries := regressionFixture(t, Score, 0)
	y := make([]int, 120)
	for i := range y {
		y[i] = i % m.Cfg.Classes
	}
	a, b := m.Clone(), m.Clone()
	if err := a.Refit(queries[:120], y); err != nil {
		t.Fatal(err)
	}
	if err := b.Refit(queries[:120], y); err != nil {
		t.Fatal(err)
	}
	pa, err := a.PredictBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := b.PredictBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("row %d: refit A %d != refit B %d", i, pa[i], pb[i])
		}
	}
	// And the refit actually replaced the ensemble state.
	if err := a.Refit(nil, nil); err == nil {
		t.Fatal("empty refit accepted")
	}
}

// TestReweightAlphasSilencesDeadLearner: zeroing one learner's class
// memory and reweighting over labeled data must collapse its alpha —
// it votes no better than chance now — while live learners keep
// positive votes.
func TestReweightAlphasSilencesDeadLearner(t *testing.T) {
	m, _ := regressionFixture(t, Score, 0)
	// Labeled rows from the fixture's training distribution (class c
	// centers at c*0.9), so live learners stay clearly better than chance.
	rng := rand.New(rand.NewSource(31337))
	X := make([][]float64, 150)
	y := make([]int, 150)
	for i := range X {
		c := i % m.Cfg.Classes
		row := make([]float64, m.InputDim())
		for j := range row {
			row[j] = float64(c)*0.9 + rng.NormFloat64()
		}
		X[i] = row
		y[i] = c
	}
	before := m.Alphas[2]
	m.Learners[2].MutateClass(func(class []hdc.Vector) {
		for _, cv := range class {
			for j := range cv {
				cv[j] = 0
			}
		}
	})
	if err := m.ReweightAlphas(X, y); err != nil {
		t.Fatal(err)
	}
	// A zeroed learner predicts one constant class, so its weighted error
	// sits at the chance bound and SAMME gives it (near-)zero importance.
	if m.Alphas[2] >= before || m.Alphas[2] > 0.5 {
		t.Fatalf("dead learner kept alpha %v (was %v)", m.Alphas[2], before)
	}
	positive := 0
	for i, a := range m.Alphas {
		if i != 2 && a > 0 {
			positive++
		}
	}
	if positive == 0 {
		t.Fatal("no live learner kept a positive alpha")
	}
}

// TestConcurrentUpdateServing hammers the float batch pipeline while
// streaming Update calls mutate the learners underneath — the
// continual-learning analogue of the fault-injection race test. Run
// with -race: pinning must keep every batch on a coherent (vectors,
// norms) pair while per-learner write locks interleave updates.
func TestConcurrentUpdateServing(t *testing.T) {
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
				pred, err := m.PredictBatch(queries[:40])
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
		}()
	}
	for k := 0; k < 400; k++ {
		if _, err := m.Update(queries[k%len(queries)], k%m.Cfg.Classes); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
}

// predictSegment is the class learner l scores highest for segment h,
// ties toward the lowest class.
func predictSegment(l *onlinehd.HVClassifier, h hdc.Vector) int {
	best, top := 0, math.Inf(-1)
	l.ReadClass(func(class []hdc.Vector, _ uint64) {
		for c, cv := range class {
			if s := hdc.Cosine(h, cv); s > top {
				best, top = c, s
			}
		}
	})
	return best
}
