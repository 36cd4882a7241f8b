package boosthd

import (
	"math/rand"
	"testing"
	"testing/quick"

	"boosthd/internal/hdc"
	"boosthd/internal/signal"
	"boosthd/internal/synth"
)

// blobs builds a noisy 3-class problem that a single tiny learner cannot
// solve perfectly but an ensemble handles well.
func blobs(n int, noise float64, seed int64) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		c := i % 3
		y[i] = c
		X[i] = make([]float64, 6)
		for j := range X[i] {
			X[i][j] = noise * rng.NormFloat64()
		}
		X[i][c] += 1.5
		X[i][(c+1)%3+3] += 0.5
	}
	return X, y
}

func TestPartition(t *testing.T) {
	segs := partition(10, 3) // 4,3,3
	if len(segs) != 3 {
		t.Fatalf("got %d segments", len(segs))
	}
	wantSizes := []int{4, 3, 3}
	lo := 0
	for i, s := range segs {
		if s.lo != lo {
			t.Errorf("segment %d starts at %d, want %d", i, s.lo, lo)
		}
		if s.hi-s.lo != wantSizes[i] {
			t.Errorf("segment %d size = %d, want %d", i, s.hi-s.lo, wantSizes[i])
		}
		lo = s.hi
	}
	if lo != 10 {
		t.Errorf("segments cover %d dims, want 10", lo)
	}
}

func TestPartitionPropertyQuick(t *testing.T) {
	f := func(dRaw, nRaw uint16) bool {
		n := int(nRaw)%64 + 1
		d := n + int(dRaw)%4096 // ensure d >= n
		segs := partition(d, n)
		lo := 0
		for _, s := range segs {
			if s.lo != lo || s.hi <= s.lo {
				return false
			}
			lo = s.hi
		}
		return lo == d
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTrainValidation(t *testing.T) {
	X, y := blobs(30, 0.1, 1)
	cfg := DefaultConfig(100, 10, 3)
	if _, err := Train(nil, nil, cfg); err == nil {
		t.Error("expected empty error")
	}
	if _, err := Train(X, y[:10], cfg); err == nil {
		t.Error("expected mismatch error")
	}
	bad := cfg
	bad.NumLearners = 0
	if _, err := Train(X, y, bad); err == nil {
		t.Error("expected learner-count error")
	}
	bad = cfg
	bad.TotalDim = 5 // < NumLearners
	if _, err := Train(X, y, bad); err == nil {
		t.Error("expected dim<learners error")
	}
	bad = cfg
	bad.Classes = 1
	if _, err := Train(X, y, bad); err == nil {
		t.Error("expected classes error")
	}
}

func TestTrainAndPredict(t *testing.T) {
	X, y := blobs(150, 0.4, 2)
	cfg := DefaultConfig(2000, 10, 3)
	cfg.Epochs = 8
	m, err := Train(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Learners) != 10 || len(m.Alphas) != 10 {
		t.Fatalf("learners/alphas = %d/%d", len(m.Learners), len(m.Alphas))
	}
	Xt, yt := blobs(60, 0.4, 3)
	acc, err := m.Evaluate(Xt, yt)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.9 {
		t.Errorf("test accuracy = %v, want >= 0.9", acc)
	}
}

func TestSegmentsCoverSpace(t *testing.T) {
	X, y := blobs(45, 0.3, 4)
	cfg := DefaultConfig(127, 10, 3) // deliberately not divisible
	cfg.Epochs = 2
	m, err := Train(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	segs := m.Segments()
	lo := 0
	total := 0
	for _, s := range segs {
		if s[0] != lo {
			t.Errorf("gap before segment at %d", s[0])
		}
		total += s[1] - s[0]
		lo = s[1]
	}
	if total != 127 {
		t.Errorf("segments cover %d, want 127", total)
	}
	// Learner dims match their segments.
	for i, l := range m.Learners {
		if l.Dim != segs[i][1]-segs[i][0] {
			t.Errorf("learner %d dim %d != segment size %d", i, l.Dim, segs[i][1]-segs[i][0])
		}
	}
}

func TestVoteAndScoreAggregationBothWork(t *testing.T) {
	X, y := blobs(120, 0.4, 5)
	Xt, yt := blobs(60, 0.4, 6)
	for _, agg := range []Aggregation{Vote, Score} {
		cfg := DefaultConfig(1500, 10, 3)
		cfg.Epochs = 6
		cfg.Aggregation = agg
		m, err := Train(X, y, cfg)
		if err != nil {
			t.Fatal(err)
		}
		acc, err := m.Evaluate(Xt, yt)
		if err != nil {
			t.Fatal(err)
		}
		if acc < 0.85 {
			t.Errorf("aggregation %v: accuracy %v, want >= 0.85", agg, acc)
		}
	}
	if Vote.String() != "vote" || Score.String() != "score" {
		t.Error("Aggregation.String broken")
	}
}

func TestPredictBatchMatchesSingle(t *testing.T) {
	X, y := blobs(60, 0.3, 7)
	cfg := DefaultConfig(500, 5, 3)
	cfg.Epochs = 3
	m, err := Train(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := m.PredictBatch(X)
	if err != nil {
		t.Fatal(err)
	}
	for i := range X {
		p, err := m.PredictBatch(X[i : i+1])
		if err != nil {
			t.Fatal(err)
		}
		if p[0] != batch[i] {
			t.Fatalf("batch[%d]=%d, single=%d", i, batch[i], p[0])
		}
	}
	if _, err := m.PredictBatch([][]float64{{1}}); err == nil {
		t.Error("expected feature-length error")
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	X, y := blobs(60, 0.3, 8)
	cfg := DefaultConfig(300, 5, 3)
	cfg.Epochs = 3
	m1, err := Train(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Train(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m1.Alphas {
		if m1.Alphas[i] != m2.Alphas[i] {
			t.Fatal("alphas differ across identical runs")
		}
	}
	p1, _ := m1.PredictBatch(X)
	p2, _ := m2.PredictBatch(X)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("predictions differ across identical runs")
		}
	}
}

func TestConcatClassVectors(t *testing.T) {
	X, y := blobs(45, 0.3, 9)
	cfg := DefaultConfig(100, 4, 3)
	cfg.Epochs = 2
	m, err := Train(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	full := m.ConcatClassVectors()
	if len(full) != 3 {
		t.Fatalf("got %d class vectors", len(full))
	}
	for c, v := range full {
		if len(v) != 100 {
			t.Fatalf("class %d vector has dim %d", c, len(v))
		}
		// Segment i must equal learner i's class vector.
		for i, seg := range m.Segments() {
			lc := m.Learners[i].Class[c]
			for j := 0; j < seg[1]-seg[0]; j++ {
				if v[seg[0]+j] != lc[j] {
					t.Fatalf("class %d segment %d mismatch", c, i)
				}
			}
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	X, y := blobs(45, 0.3, 10)
	cfg := DefaultConfig(100, 4, 3)
	cfg.Epochs = 2
	m, err := Train(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl := m.Clone()
	cl.Learners[0].Class[0][0] += 1000
	cl.Alphas[0] = -1
	if m.Learners[0].Class[0][0] == cl.Learners[0].Class[0][0] {
		t.Error("clone shares learner storage")
	}
	if m.Alphas[0] == -1 {
		t.Error("clone shares alpha storage")
	}
}

func TestDegenerateRegimeCollapses(t *testing.T) {
	// Figure 3(b)'s unstable region: starving each weak learner of
	// dimensions (here 1 dim per learner) collapses the ensemble relative
	// to the same NL with a healthy per-learner dimensionality.
	cfg := synth.StressPredictConfig()
	cfg.NumSubjects = 4
	cfg.SamplesPerState = 512
	d, subjects, err := synth.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	train, test, _, err := synth.SubjectSplit(d, subjects, 0.25, 1)
	if err != nil {
		t.Fatal(err)
	}
	norm, err := signal.FitNormalizer(train.X, signal.ZScore)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := norm.Apply(train.X); err != nil {
		t.Fatal(err)
	}
	if _, err := norm.Apply(test.X); err != nil {
		t.Fatal(err)
	}
	run := func(totalDim, nl int) float64 {
		c := DefaultConfig(totalDim, nl, 3)
		c.Epochs = 5
		m, err := Train(train.X, train.Y, c)
		if err != nil {
			t.Fatal(err)
		}
		acc, err := m.Evaluate(test.X, test.Y)
		if err != nil {
			t.Fatal(err)
		}
		return acc
	}
	healthy := run(1000, 10)  // 100 dims per learner
	degenerate := run(10, 10) // 1 dim per learner
	if degenerate >= healthy {
		t.Errorf("1-dim weak learners (%v) should collapse vs 100-dim (%v)", degenerate, healthy)
	}
}

func TestBoostHDBeatsOnlineHDOnEqualBudget(t *testing.T) {
	// The paper's headline: at equal Dtotal, partitioned boosting beats
	// the monolithic learner on noisy healthcare-like data.
	var boostSum, onlineSum float64
	const trials = 3
	for trial := 0; trial < trials; trial++ {
		cfg := synth.WESADConfig()
		cfg.NumSubjects = 8
		cfg.SamplesPerState = 768
		cfg.Separability = 0.5 // harder than stock WESAD to open a gap
		cfg.Seed += int64(trial)
		d, subjects, err := synth.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		train, test, _, err := synth.SubjectSplit(d, subjects, 0.3, int64(trial))
		if err != nil {
			t.Fatal(err)
		}
		bcfg := DefaultConfig(4000, 10, 3)
		bcfg.Epochs = 10
		bcfg.Seed = int64(trial)
		bm, err := Train(train.X, train.Y, bcfg)
		if err != nil {
			t.Fatal(err)
		}
		boostAcc, err := bm.Evaluate(test.X, test.Y)
		if err != nil {
			t.Fatal(err)
		}
		// A single weak learner with the same total budget = OnlineHD.
		ocfg := DefaultConfig(4000, 1, 3)
		ocfg.Epochs = 10
		ocfg.Seed = int64(trial)
		om, err := Train(train.X, train.Y, ocfg)
		if err != nil {
			t.Fatal(err)
		}
		onlineAcc, err := om.Evaluate(test.X, test.Y)
		if err != nil {
			t.Fatal(err)
		}
		boostSum += boostAcc
		onlineSum += onlineAcc
	}
	boostMean, onlineMean := boostSum/trials, onlineSum/trials
	if boostMean < onlineMean-0.02 {
		t.Errorf("BoostHD (%v) should not lose to OnlineHD (%v) at equal Dtotal", boostMean, onlineMean)
	}
}

// ConcatClassVectors stitches the per-learner class hypervectors back into
// full-width class vectors (learner i's class-c vector occupies segment i).
func (m *Model) ConcatClassVectors() []hdc.Vector {
	out := make([]hdc.Vector, m.Cfg.Classes)
	for c := range out {
		out[c] = hdc.NewVector(m.Cfg.TotalDim)
	}
	for i, l := range m.Learners {
		l.ReadClass(func(class []hdc.Vector, _ uint64) {
			for c, cv := range class {
				copy(out[c][m.segs[i].lo:m.segs[i].hi], cv)
			}
		})
	}
	return out
}
