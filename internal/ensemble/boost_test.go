package ensemble

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBoostValidation(t *testing.T) {
	train := func(int, []float64) ([]int, error) { return []int{0}, nil }
	if _, err := Boost([]int{0}, 1, 3, train); err == nil {
		t.Error("expected classes error")
	}
	if _, err := Boost([]int{0}, 2, 0, train); err == nil {
		t.Error("expected rounds error")
	}
	if _, err := Boost(nil, 2, 1, train); err == nil {
		t.Error("expected empty error")
	}
	if _, err := Boost([]int{5}, 2, 1, train); err == nil {
		t.Error("expected label range error")
	}
	bad := func(int, []float64) ([]int, error) { return []int{0, 0}, nil }
	if _, err := Boost([]int{0}, 2, 1, bad); err == nil {
		t.Error("expected prediction length error")
	}
}

func TestBoostPerfectLearner(t *testing.T) {
	y := []int{0, 1, 0, 1}
	train := func(_ int, w []float64) ([]int, error) {
		return append([]int(nil), y...), nil
	}
	res, err := Boost(y, 2, 3, train)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.WeightedErr != 0 {
			t.Errorf("err = %v, want 0", r.WeightedErr)
		}
		if r.Alpha < math.Log(1e9) {
			t.Errorf("perfect learner should get large alpha, got %v", r.Alpha)
		}
	}
}

func TestBoostRandomLearnerGetsZeroAlpha(t *testing.T) {
	y := []int{0, 1, 2, 0, 1, 2}
	// Always wrong: weighted error 1 > 1 - 1/3.
	train := func(_ int, w []float64) ([]int, error) {
		pred := make([]int, len(y))
		for i := range pred {
			pred[i] = (y[i] + 1) % 3
		}
		return pred, nil
	}
	res, err := Boost(y, 3, 2, train)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Alpha != 0 {
			t.Errorf("worse-than-chance learner must get alpha 0, got %v", r.Alpha)
		}
	}
}

func TestBoostUpweightsMistakes(t *testing.T) {
	y := []int{0, 0, 0, 1, 1, 1}
	var lastW []float64
	round := 0
	train := func(r int, w []float64) ([]int, error) {
		lastW = append([]float64(nil), w...)
		round = r
		// Learner that misclassifies only sample 0.
		pred := append([]int(nil), y...)
		pred[0] = 1
		return pred, nil
	}
	if _, err := Boost(y, 2, 2, train); err != nil {
		t.Fatal(err)
	}
	if round != 1 {
		t.Fatalf("expected 2 rounds")
	}
	// In round 2, sample 0 must carry more weight than the others.
	for i := 1; i < len(lastW); i++ {
		if lastW[0] <= lastW[i] {
			t.Errorf("misclassified sample should be up-weighted: w[0]=%v w[%d]=%v", lastW[0], i, lastW[i])
		}
	}
	// Distribution stays normalized.
	var sum float64
	for _, w := range lastW {
		sum += w
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("weights sum to %v, want 1", sum)
	}
}

func TestBoostAlphaOrdering(t *testing.T) {
	// A more accurate learner must receive a larger alpha.
	y := make([]int, 100)
	for i := range y {
		y[i] = i % 2
	}
	mistakes := []int{5, 30} // round 0: 5 mistakes, round 1: 30 mistakes
	train := func(r int, w []float64) ([]int, error) {
		pred := append([]int(nil), y...)
		for i := 0; i < mistakes[r]; i++ {
			pred[i] = 1 - pred[i]
		}
		return pred, nil
	}
	res, err := Boost(y, 2, 2, train)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Alpha <= res[1].Alpha {
		t.Errorf("5%% error should out-rank 30%% error: %v vs %v", res[0].Alpha, res[1].Alpha)
	}
}

func TestVoteAggregate(t *testing.T) {
	votes := []int{0, 1, 1, 2}
	alphas := []float64{3, 1, 1, 0.5}
	// class 0: 3.0, class 1: 2.0, class 2: 0.5 -> 0
	if got := VoteAggregate(votes, alphas, 3); got != 0 {
		t.Errorf("VoteAggregate = %d, want 0", got)
	}
}

// TestVoteAggregatePanicsOnProgrammerError: a votes/alphas length
// mismatch or an out-of-range vote must panic, not silently drop votes
// and miscount the election. Before the fix, []int{-1, 9, 1} quietly
// elected whichever class the surviving vote named.
func TestVoteAggregatePanicsOnProgrammerError(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("length mismatch", func() {
		VoteAggregate([]int{0, 1}, []float64{1}, 3)
	})
	mustPanic("negative vote", func() {
		VoteAggregate([]int{-1, 1}, []float64{1, 1}, 3)
	})
	mustPanic("vote past classes", func() {
		VoteAggregate([]int{0, 9}, []float64{1, 1}, 3)
	})
}

func TestScoreAggregate(t *testing.T) {
	scores := [][]float64{
		{0.9, 0.1, 0.0},
		{0.2, 0.7, 0.1},
	}
	alphas := []float64{1, 2}
	// class 0: 0.9+0.4=1.3, class 1: 0.1+1.4=1.5 -> 1
	if got := ScoreAggregate(scores, alphas, 3); got != 1 {
		t.Errorf("ScoreAggregate = %d, want 1", got)
	}
}

func TestWeightedSample(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	w := []float64{0, 0, 1, 0}
	idx, err := WeightedSample(w, 50, rng.Float64)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range idx {
		if i != 2 {
			t.Fatalf("all mass on index 2, sampled %d", i)
		}
	}
	if _, err := WeightedSample(nil, 1, rng.Float64); err == nil {
		t.Error("expected empty error")
	}
	if _, err := WeightedSample([]float64{-1}, 1, rng.Float64); err == nil {
		t.Error("expected negative weight error")
	}
	if _, err := WeightedSample([]float64{0, 0}, 1, rng.Float64); err == nil {
		t.Error("expected zero-sum error")
	}
}

func TestWeightedSampleProportions(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	w := []float64{0.75, 0.25}
	idx, err := WeightedSample(w, 20000, rng.Float64)
	if err != nil {
		t.Fatal(err)
	}
	count0 := 0
	for _, i := range idx {
		if i == 0 {
			count0++
		}
	}
	frac := float64(count0) / 20000
	if math.Abs(frac-0.75) > 0.02 {
		t.Errorf("sampled fraction %v, want ~0.75", frac)
	}
}

// Property: boosting keeps the sample distribution normalized and alphas
// finite for any (reasonable) learner behaviour.
func TestBoostInvariantsQuick(t *testing.T) {
	f := func(seed int64, flips uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 40
		y := make([]int, n)
		for i := range y {
			y[i] = rng.Intn(3)
		}
		var lastW []float64
		train := func(_ int, w []float64) ([]int, error) {
			lastW = append([]float64(nil), w...)
			pred := append([]int(nil), y...)
			for i := 0; i < int(flips)%n; i++ {
				pred[rng.Intn(n)] = rng.Intn(3)
			}
			return pred, nil
		}
		res, err := Boost(y, 3, 4, train)
		if err != nil {
			return false
		}
		var sum float64
		for _, w := range lastW {
			if w < 0 {
				return false
			}
			sum += w
		}
		if math.Abs(sum-1) > 1e-6 {
			return false
		}
		for _, r := range res {
			if math.IsNaN(r.Alpha) || math.IsInf(r.Alpha, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// ScoreAggregate combines per-learner class scores (e.g. cosine
// similarities) weighted by alpha: argmax_k sum_i alpha_i * scores_i[k].
func ScoreAggregate(scores [][]float64, alphas []float64, classes int) int {
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
