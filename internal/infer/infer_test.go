package infer

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"boosthd/internal/boosthd"
	"boosthd/internal/faults"
	"boosthd/internal/hdc"
)

// fixture trains a small fixed-seed ensemble and returns query rows.
func fixture(t testing.TB, dim, nl int) (*boosthd.Model, [][]float64, []int) {
	t.Helper()
	rng := rand.New(rand.NewSource(1234))
	const n, features, classes = 300, 10, 3
	// Each class gets its own random feature profile (as real sensor
	// windows do), not a single shared shift direction.
	centers := make([][]float64, classes)
	for c := range centers {
		mu := make([]float64, features)
		for j := range mu {
			mu[j] = rng.NormFloat64() * 1.2
		}
		centers[c] = mu
	}
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		c := i % classes
		row := make([]float64, features)
		for j := range row {
			row[j] = centers[c][j] + rng.NormFloat64()*0.8
		}
		X[i] = row
		y[i] = c
	}
	// Z-score the features — the paper's protocol, and the regime the
	// encoders' bandwidth heuristics are tuned for.
	for j := 0; j < features; j++ {
		var mean, sq float64
		for i := range X {
			mean += X[i][j]
		}
		mean /= float64(n)
		for i := range X {
			d := X[i][j] - mean
			sq += d * d
		}
		std := 1.0
		if sq > 0 {
			std = math.Sqrt(sq / float64(n))
		}
		for i := range X {
			X[i][j] = (X[i][j] - mean) / std
		}
	}
	cfg := boosthd.DefaultConfig(dim, nl, classes)
	cfg.Epochs = 4
	cfg.Seed = 7
	m, err := boosthd.Train(X[:200], y[:200], cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m, X[200:], y[200:]
}

// TestFloatEngineMatchesModel pins the float backend as a pass-through to
// the model's fused pipeline.
func TestFloatEngineMatchesModel(t *testing.T) {
	m, X, y := fixture(t, 800, 8)
	e := NewEngine(m)
	if e.Backend() != Float || e.Binary() != nil || e.Model() != m {
		t.Fatal("float engine wiring broken")
	}
	want, err := m.PredictBatch(X)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.PredictBatch(X)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: engine %d != model %d", i, got[i], want[i])
		}
	}
	p, err := e.Predict(X[0])
	if err != nil {
		t.Fatal(err)
	}
	if p != want[0] {
		t.Fatalf("Predict %d != PredictBatch %d", p, want[0])
	}
	acc, err := e.Evaluate(X, y)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.6 {
		t.Fatalf("float accuracy %v suspiciously low on separable fixture", acc)
	}
}

// TestQuantizeThresholdsClassVectors checks the ternary class memory:
// the sign plane is the componentwise sign of the float model, and the
// confidence mask keeps the strongest 1-QuantizeDrop of components.
func TestQuantizeThresholdsClassVectors(t *testing.T) {
	m, _, _ := fixture(t, 640, 8)
	bm, err := Quantize(m)
	if err != nil {
		t.Fatal(err)
	}
	cvs := make([][]hdc.Vector, len(m.Learners))
	for i, l := range m.Learners {
		l.ReadClass(func(class []hdc.Vector, _ uint64) { cvs[i] = class })
	}
	qz := bm.snap.Load()
	comps := 0
	for i, learner := range cvs {
		for c, cv := range learner {
			want := signBits(cv)
			sign, maskWords := qz.words(i, c)
			for w := range want.Words {
				if sign[w] != want.Words[w] {
					t.Fatalf("learner %d class %d word %d sign mismatch", i, c, w)
				}
			}
			mask := &hdc.BitVector{N: len(cv), Words: maskWords}
			ones := mask.Ones()
			if float64(ones) != qz.maskOnes[i][c] {
				t.Fatalf("learner %d class %d: cached mask popcount %v != %d", i, c, qz.maskOnes[i][c], ones)
			}
			lo := int(float64(len(cv)) * (1 - QuantizeDrop - 0.05))
			hi := int(float64(len(cv)) * (1 - QuantizeDrop + 0.05))
			if ones < lo || ones > hi {
				t.Fatalf("learner %d class %d: mask keeps %d of %d components, want ~%d",
					i, c, ones, len(cv), int(float64(len(cv))*(1-QuantizeDrop)))
			}
			// Masked-in components must be at least as strong as every
			// masked-out one.
			var maxOut, minIn float64
			minIn = math.MaxFloat64
			for j, v := range cv {
				a := math.Abs(v)
				if bitAt(mask, j) {
					if a < minIn {
						minIn = a
					}
				} else if a > maxOut {
					maxOut = a
				}
			}
			if minIn < maxOut {
				t.Fatalf("learner %d class %d: masked-in magnitude %v below masked-out %v", i, c, minIn, maxOut)
			}
			comps += len(cv)
		}
	}
	if bm.Bits() != 2*comps {
		t.Fatalf("Bits() = %d, want %d (sign + mask planes)", bm.Bits(), 2*comps)
	}
}

// TestBinaryPredictConsistency checks single, batch, and pre-encoded
// binary prediction agree, across batch sizes straddling the row blocks.
func TestBinaryPredictConsistency(t *testing.T) {
	m, X, _ := fixture(t, 640, 8)
	bm, err := Quantize(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 3, 4, 5, 33, 65, 100} {
		sub := X[:n]
		batch, err := bm.PredictBatch(sub)
		if err != nil {
			t.Fatal(err)
		}
		q := bm.NewQueryBits()
		agg := make([]float64, 3)
		scores := make([]float64, 3)
		for i, x := range sub {
			single, err := bm.Predict(x)
			if err != nil {
				t.Fatal(err)
			}
			if batch[i] != single {
				t.Fatalf("n=%d row %d: batch %d != single %d", n, i, batch[i], single)
			}
			if err := bm.EncodeBits(x, q); err != nil {
				t.Fatal(err)
			}
			if pre := bm.PredictBits(q, agg, scores); pre != single {
				t.Fatalf("n=%d row %d: PredictBits %d != Predict %d", n, i, pre, single)
			}
		}
	}
}

// TestBinaryAccuracyNearFloat pins the quantization quality on the
// separable fixture: the packed-binary backend must track the float
// backend closely.
func TestBinaryAccuracyNearFloat(t *testing.T) {
	m, X, y := fixture(t, 2000, 10)
	fAcc, err := NewEngine(m).Evaluate(X, y)
	if err != nil {
		t.Fatal(err)
	}
	be, err := NewBinaryEngine(m)
	if err != nil {
		t.Fatal(err)
	}
	bAcc, err := be.Evaluate(X, y)
	if err != nil {
		t.Fatal(err)
	}
	if bAcc < fAcc-0.05 {
		t.Fatalf("binary accuracy %.3f trails float %.3f by more than 5 points", bAcc, fAcc)
	}
}

// TestBinaryStaleRefresh pins the version-counter coupling: fault
// injection marks the quantization stale, Refresh re-thresholds.
func TestBinaryStaleRefresh(t *testing.T) {
	m, X, _ := fixture(t, 640, 8)
	bm, err := Quantize(m)
	if err != nil {
		t.Fatal(err)
	}
	if bm.Stale() {
		t.Fatal("fresh quantization must not be stale")
	}
	inj, err := faults.NewInjector(0.02, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	if flips := m.InjectClassFaults(inj); flips == 0 {
		t.Fatal("expected flips")
	}
	if !bm.Stale() {
		t.Fatal("fault injection must mark the quantization stale")
	}
	bm.Refresh()
	if bm.Stale() {
		t.Fatal("Refresh must clear staleness")
	}
	// After refresh the class bits equal the signs of the faulted vectors.
	fresh, err := Quantize(m)
	if err != nil {
		t.Fatal(err)
	}
	freshQz := fresh.snap.Load()
	bmQz := bm.snap.Load()
	for i := range freshQz.planes {
		if !slices.Equal(bmQz.planes[i], freshQz.planes[i]) {
			t.Fatal("Refresh did not re-threshold the faulted memory")
		}
	}
	if _, err := bm.PredictBatch(X[:8]); err != nil {
		t.Fatal(err)
	}
}

// TestQuantizeMaskRankSelection pins the rank-based confidence mask:
// exactly len-floor(QuantizeDrop*len) components survive, regardless of
// magnitude ties at the selection boundary or fully constant vectors —
// the cases where a value-threshold comparison over-drops.
func TestQuantizeMaskRankSelection(t *testing.T) {
	cases := []struct {
		name string
		cv   hdc.Vector
	}{
		{"distinct small dim", hdc.Vector{1, -2, 3, -4}},
		{"boundary ties", hdc.Vector{1, -1, 1, -1, 2, -2, 3, 3}},
		{"all equal", hdc.Vector{0.5, 0.5, -0.5, 0.5, -0.5, 0.5, 0.5, -0.5}},
	}
	for _, tc := range cases {
		qz := &quantization{planes: make([][]uint64, 1), maskOnes: make([][]float64, 1)}
		qz.quantizeLearner(0, []hdc.Vector{tc.cv})
		keep := len(tc.cv) - int(QuantizeDrop*float64(len(tc.cv)))
		_, maskWords := qz.words(0, 0)
		mask := &hdc.BitVector{N: len(tc.cv), Words: maskWords}
		if ones := mask.Ones(); ones != keep {
			t.Errorf("%s: mask keeps %d of %d components, want exactly %d",
				tc.name, ones, len(tc.cv), keep)
		}
		if qz.maskOnes[0][0] != float64(keep) {
			t.Errorf("%s: cached popcount %v, want %d", tc.name, qz.maskOnes[0][0], keep)
		}
		// No kept component may be weaker than a dropped one.
		var maxOut, minIn float64
		minIn = math.MaxFloat64
		for j, v := range tc.cv {
			a := math.Abs(v)
			if bitAt(mask, j) {
				if a < minIn {
					minIn = a
				}
			} else if a > maxOut {
				maxOut = a
			}
		}
		if minIn < maxOut {
			t.Errorf("%s: masked-in magnitude %v below masked-out %v", tc.name, minIn, maxOut)
		}
	}
}

// TestEngineEvaluateValidation covers the error paths.
func TestEngineEvaluateValidation(t *testing.T) {
	m, X, y := fixture(t, 320, 4)
	e := NewEngine(m)
	if _, err := e.Evaluate(X, y[:1]); err == nil {
		t.Fatal("expected length-mismatch error")
	}
	if _, err := e.Evaluate(nil, nil); err == nil {
		t.Fatal("expected empty-set error")
	}
	if _, err := Quantize(&boosthd.Model{}); err == nil {
		t.Fatal("expected no-learner error")
	}
}

// TestBinaryConcurrentServingWithFaults hammers the binary engine from
// several goroutines while the float model mutates underneath — the
// snapshot design must keep every scorer on a consistent quantization
// (run with -race to catch torn planes). GOMAXPROCS is forced up so the
// mutator genuinely overlaps the scorers even on single-CPU CI boxes.
func TestBinaryConcurrentServingWithFaults(t *testing.T) {
	if prev := runtime.GOMAXPROCS(0); prev < 4 {
		runtime.GOMAXPROCS(4)
		defer runtime.GOMAXPROCS(prev)
	}
	m, X, _ := fixture(t, 320, 4)
	bm, err := Quantize(m)
	if err != nil {
		t.Fatal(err)
	}
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
				if _, err := bm.PredictBatch(X[:40]); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	rng := rand.New(rand.NewSource(33))
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

// TestRemaskSkipsPoisonedLearner: a quarantined learner's memory can
// hold NaN/Inf after bit flips; the masked engine must never read it —
// predictions match a clean model with the same learner masked, on both
// backends, even when the masked memory is all-NaN.
func TestRemaskSkipsPoisonedLearner(t *testing.T) {
	m, X, _ := fixture(t, 320, 4)
	pristine := m.Clone()
	mask := []bool{false, true, false, false}

	view, err := pristine.MaskedView(mask, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantFloat, err := NewEngine(view).PredictBatch(X)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := NewBinaryEngine(pristine.Clone())
	if err != nil {
		t.Fatal(err)
	}
	refBin, err := Remask(pb, pb.Model(), mask)
	if err != nil {
		t.Fatal(err)
	}
	wantBin, err := refBin.PredictBatch(X)
	if err != nil {
		t.Fatal(err)
	}

	// Poison the masked learner completely.
	m.Learners[1].MutateClass(func(class []hdc.Vector) {
		for _, cv := range class {
			for k := range cv {
				cv[k] = math.NaN()
			}
		}
	})
	floatEng, err := Remask(NewEngine(m), m, mask)
	if err != nil {
		t.Fatal(err)
	}
	got, err := floatEng.PredictBatch(X)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != wantFloat[i] {
			t.Fatalf("float masked prediction %d: %d != %d", i, got[i], wantFloat[i])
		}
	}
	binEng, err := NewBinaryEngine(m)
	if err != nil {
		t.Fatal(err)
	}
	binMasked, err := Remask(binEng, m, mask)
	if err != nil {
		t.Fatal(err)
	}
	gotBin, err := binMasked.PredictBatch(X)
	if err != nil {
		t.Fatal(err)
	}
	for i := range gotBin {
		if gotBin[i] != wantBin[i] {
			t.Fatalf("binary masked prediction %d: %d != %d", i, gotBin[i], wantBin[i])
		}
	}
}

// TestRethresholdHealsWordFaults: silent word faults never bump
// versions, so a version-gated Refresh must NOT heal them while
// Rethreshold must restore the exact pristine planes (and predictions).
func TestRethresholdHealsWordFaults(t *testing.T) {
	m, X, _ := fixture(t, 320, 4)
	bm, err := Quantize(m)
	if err != nil {
		t.Fatal(err)
	}
	want, err := bm.PredictBatch(X)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := faults.NewInjector(1e-3, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	flips := 0
	for attempt := 0; attempt < 100 && flips == 0; attempt++ {
		flips = bm.InjectWordFaults(inj)
	}
	if flips == 0 {
		t.Fatal("no bits flipped")
	}
	if bm.Stale() {
		t.Fatal("word faults must be invisible to the version check")
	}
	// A version-gated Refresh reuses the (corrupted) planes wholesale.
	bm.Refresh()
	if err := bm.Rethreshold(); err != nil {
		t.Fatal(err)
	}
	got, err := bm.PredictBatch(X)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("post-rethreshold prediction %d: %d != %d", i, got[i], want[i])
		}
	}
}

// TestEvaluateLearnersSoloAccuracy: per-learner canary accuracies must
// be sane on both backends — above chance for a trained model, and
// collapsing for a learner whose memory is zeroed.
func TestEvaluateLearnersSoloAccuracy(t *testing.T) {
	m, X, y := fixture(t, 320, 4)
	accF, err := m.EvaluateLearners(X, y)
	if err != nil {
		t.Fatal(err)
	}
	bm, err := Quantize(m)
	if err != nil {
		t.Fatal(err)
	}
	accB, err := bm.EvaluateLearners(X, y)
	if err != nil {
		t.Fatal(err)
	}
	if len(accF) != 4 || len(accB) != 4 {
		t.Fatalf("per-learner accuracy lengths %d/%d, want 4", len(accF), len(accB))
	}
	for i := range accF {
		if accF[i] < 0.4 || accB[i] < 0.4 {
			t.Errorf("learner %d solo accuracy collapsed: float %.3f binary %.3f", i, accF[i], accB[i])
		}
	}
}

// TestCanaryMatchesServing ties the canary probe to serving. On float and
// binary engines, plain, dimension-masked and tenant, under both
// aggregation rules, EvaluateLearners' accuracy for every voting learner
// must equal Evaluate on the same engine re-masked so that learner votes
// alone, its dimension mask kept.
func TestCanaryMatchesServing(t *testing.T) {
	m, X, y := fixture(t, 2048, 4)
	healthy := dimMaskFixture(len(m.Learners), 8)
	d := tenantDelta(t, m, []int{1, 2}, X[:80], y[:80])
	for _, agg := range []boosthd.Aggregation{boosthd.Score, boosthd.Vote} {
		ma := m.Clone()
		ma.Cfg.Aggregation = agg
		binary, err := NewBinaryEngine(ma)
		if err != nil {
			t.Fatal(err)
		}
		for _, base := range []*Engine{NewEngine(ma), binary} {
			dimMasked, err := RemaskDims(base, ma, make([]bool, len(ma.Learners)), healthy)
			if err != nil {
				t.Fatal(err)
			}
			tenant, err := base.WithDelta(d)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range []struct {
				name    string
				eng     *Engine
				healthy [][]uint64
			}{{"plain", base, nil}, {"dim-masked", dimMasked, healthy}, {"tenant", tenant, nil}} {
				acc, err := v.eng.EvaluateLearners(X, y)
				if err != nil {
					t.Fatal(err)
				}
				view := v.eng.Model()
				for i, alpha := range view.Alphas {
					if alpha <= 0 {
						continue
					}
					others := make([]bool, len(view.Alphas))
					for j := range others {
						others[j] = j != i
					}
					alone, err := RemaskDims(v.eng, view, others, v.healthy)
					if err != nil {
						t.Fatal(err)
					}
					want, err := alone.Evaluate(X, y)
					if err != nil {
						t.Fatal(err)
					}
					if acc[i] != want {
						t.Errorf("%s %s %s learner %d: canary accuracy %v, serving alone %v",
							agg, base.Backend(), v.name, i, acc[i], want)
					}
				}
			}
		}
	}
}

// Refresh and PredictBatch below are the tests' shorthands: serving
// reaches the binary model through Engine, which calls
// PredictBatchStaged, and that re-quantizes a stale snapshot itself.

// Refresh re-thresholds the class memories from the current float model,
// atomically swapping in a new snapshot.
func (bm *BinaryModel) Refresh() {
	if bm.frozen {
		return
	}
	bm.mu.Lock()
	defer bm.mu.Unlock()
	bm.snap.Store(snapshot(bm.model, bm.snap.Load()))
}

// PredictBatch classifies rows through the binary pipeline with
// per-worker query buffers: blocks of rows are encoded to sign bits by
// the register-blocked kernel and scored by popcount. A stale
// quantization (float model mutated since the snapshot) is refreshed
// first, and the whole batch scores against one consistent snapshot.
func (bm *BinaryModel) PredictBatch(X [][]float64) ([]int, error) {
	return bm.PredictBatchStaged(X, nil)
}
