package synth

import (
	"math"
	"math/rand"
	"testing"

	"boosthd/internal/signal"
)

func TestNewSubjectsDeterministic(t *testing.T) {
	a := NewSubjects(15, 42)
	b := NewSubjects(15, 42)
	if len(a) != 15 {
		t.Fatalf("len = %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must give identical subjects")
		}
	}
	c := NewSubjects(15, 43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds should differ")
	}
}

func TestSubjectsPlausible(t *testing.T) {
	for _, s := range NewSubjects(100, 7) {
		if s.RestHR < 40 || s.RestHR > 110 {
			t.Errorf("subject %d: implausible HR %v", s.ID, s.RestHR)
		}
		if s.Height < 140 || s.Height > 210 {
			t.Errorf("subject %d: implausible height %v", s.ID, s.Height)
		}
		if s.Age < 20 || s.Age > 50 {
			t.Errorf("subject %d: implausible age %d", s.ID, s.Age)
		}
		if s.Reactive < 0.3 || s.Reactive > 1.2 {
			t.Errorf("subject %d: reactivity out of clamp %v", s.ID, s.Reactive)
		}
		if s.RespRate < 8 {
			t.Errorf("subject %d: resp rate %v", s.ID, s.RespRate)
		}
	}
}

func TestTableIIIGroupsNonEmpty(t *testing.T) {
	subjects := NewSubjects(15, WESADConfig().Seed)
	for _, g := range TableIIIGroups() {
		ids := SelectSubjects(subjects, g)
		if len(ids) == 0 {
			t.Errorf("group %q has no subjects with the WESAD seed — Table III needs every cohort populated", g.Name)
		}
	}
}

func TestRecordingShape(t *testing.T) {
	s := NewSubjects(1, 1)[0]
	rng := rand.New(rand.NewSource(2))
	rec := Recording(s, StateStress, 500, 0.9, 0.2, rng)
	if len(rec) != NumChannels {
		t.Fatalf("channels = %d, want %d", len(rec), NumChannels)
	}
	for i, ch := range rec {
		if len(ch) != 500 {
			t.Fatalf("channel %d length %d", i, len(ch))
		}
		for _, v := range ch {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("channel %d contains NaN/Inf", i)
			}
		}
	}
}

func TestStressShiftsPhysiology(t *testing.T) {
	// Stress must raise heart rate and EDA relative to baseline for a
	// reactive subject — the separability the classifiers rely on.
	s := NewSubjects(1, 3)[0]
	s.Reactive = 1
	n := 4000
	base := Recording(s, StateBaseline, n, 1, 0.05, rand.New(rand.NewSource(4)))
	stress := Recording(s, StateStress, n, 1, 0.05, rand.New(rand.NewSource(5)))

	mean := func(x []float64) float64 {
		var sum float64
		for _, v := range x {
			sum += v
		}
		return sum / float64(len(x))
	}
	// EDA channel (2) must rise under stress.
	if mean(stress[2]) <= mean(base[2]) {
		t.Errorf("stress EDA %v should exceed baseline %v", mean(stress[2]), mean(base[2]))
	}
	// BVP oscillates faster under stress: count zero crossings.
	crossings := func(x []float64) int {
		c := 0
		for i := 1; i < len(x); i++ {
			if (x[i] >= 0) != (x[i-1] >= 0) {
				c++
			}
		}
		return c
	}
	sm := func(x []float64) []float64 { return signal.MovingAverage(x, 3) }
	if crossings(sm(stress[0])) <= crossings(sm(base[0])) {
		t.Errorf("stress BVP should oscillate faster: %d vs %d",
			crossings(sm(stress[0])), crossings(sm(base[0])))
	}
}

func TestSeparabilityShrinksStateGap(t *testing.T) {
	s := NewSubjects(1, 6)[0]
	s.Reactive = 1
	n := 4000
	mean := func(x []float64) float64 {
		var sum float64
		for _, v := range x {
			sum += v
		}
		return sum / float64(len(x))
	}
	gap := func(sep float64) float64 {
		base := Recording(s, StateBaseline, n, sep, 0.05, rand.New(rand.NewSource(7)))
		stress := Recording(s, StateStress, n, sep, 0.05, rand.New(rand.NewSource(8)))
		return mean(stress[2]) - mean(base[2])
	}
	if gap(0.2) >= gap(1.0) {
		t.Errorf("low separability should shrink the EDA gap: %v vs %v", gap(0.2), gap(1.0))
	}
}

func TestBuildWESAD(t *testing.T) {
	cfg := WESADConfig()
	cfg.SamplesPerState = 512 // keep the test fast
	d, subjects, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(subjects) != 15 {
		t.Errorf("subjects = %d", len(subjects))
	}
	if d.NumClasses != 3 {
		t.Errorf("classes = %d", d.NumClasses)
	}
	wantFeatures := NumChannels * signal.FeaturesPerChannel
	if d.NumFeatures() != wantFeatures {
		t.Errorf("features = %d, want %d", d.NumFeatures(), wantFeatures)
	}
	// All subjects and all classes present.
	seen := map[int]bool{}
	for _, s := range d.Subjects {
		seen[s] = true
	}
	if got := len(seen); got != 15 {
		t.Errorf("distinct subjects in data = %d", got)
	}
	counts := make([]int, d.NumClasses)
	for _, y := range d.Y {
		counts[y]++
	}
	for c, n := range counts {
		if n == 0 {
			t.Errorf("class %d absent", c)
		}
	}
}

func TestBuildDerivativesEnlargeInput(t *testing.T) {
	cfg := NurseStressConfig()
	cfg.NumSubjects = 3
	cfg.SamplesPerState = 512
	d, _, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * NumChannels * signal.FeaturesPerChannel
	if d.NumFeatures() != want {
		t.Errorf("features = %d, want %d (with derivatives)", d.NumFeatures(), want)
	}
}

func TestBuildDeterministic(t *testing.T) {
	cfg := WESADConfig()
	cfg.NumSubjects = 3
	cfg.SamplesPerState = 256
	a, _, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatal("nondeterministic sizes")
	}
	for i := range a.Y {
		if a.Y[i] != b.Y[i] || a.Subjects[i] != b.Subjects[i] {
			t.Fatal("nondeterministic labels")
		}
		for j := range a.X[i] {
			if a.X[i][j] != b.X[i][j] {
				t.Fatal("nondeterministic features")
			}
		}
	}
}

func TestBuildValidation(t *testing.T) {
	cfg := WESADConfig()
	cfg.NumSubjects = 1
	if _, _, err := Build(cfg); err == nil {
		t.Error("expected subject-count error")
	}
	cfg = WESADConfig()
	cfg.SamplesPerState = 10
	if _, _, err := Build(cfg); err == nil {
		t.Error("expected window error")
	}
	cfg = WESADConfig()
	cfg.Separability = 0
	if _, _, err := Build(cfg); err == nil {
		t.Error("expected separability error")
	}
}

func TestSubjectSplit(t *testing.T) {
	cfg := WESADConfig()
	cfg.NumSubjects = 5
	cfg.SamplesPerState = 256
	d, subjects, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	train, test, testIDs, err := SubjectSplit(d, subjects, 0.3, 99)
	if err != nil {
		t.Fatal(err)
	}
	if len(testIDs) == 0 {
		t.Fatal("no test subjects")
	}
	isTest := map[int]bool{}
	for _, id := range testIDs {
		isTest[id] = true
	}
	for _, s := range train.Subjects {
		if isTest[s] {
			t.Fatal("train leaks test subject")
		}
	}
	for _, s := range test.Subjects {
		if !isTest[s] {
			t.Fatal("test contains train subject")
		}
	}
	if _, _, _, err := SubjectSplit(d, subjects, 0, 1); err == nil {
		t.Error("expected fraction error")
	}
}

func TestConfigsAreDistinct(t *testing.T) {
	w, n, s := WESADConfig(), NurseStressConfig(), StressPredictConfig()
	if !(w.Separability > s.Separability && s.Separability > n.Separability) {
		t.Error("difficulty ordering must be WESAD > StressPredict > NurseStress")
	}
	if !(w.LabelNoise < s.LabelNoise && s.LabelNoise < n.LabelNoise) {
		t.Error("label noise ordering must be WESAD < StressPredict < NurseStress")
	}
	if n.NumSubjects != 37 {
		t.Errorf("nurse subjects = %d, want 37 as in the paper", n.NumSubjects)
	}
}

// StateBaseline is the low-arousal baseline state, which modulationFor
// takes as its default case.
const StateBaseline = 0
