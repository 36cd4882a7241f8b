package dataset

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func toy() *Dataset {
	return &Dataset{
		Name:       "toy",
		X:          [][]float64{{0}, {1}, {2}, {3}, {4}, {5}},
		Y:          []int{0, 0, 1, 1, 2, 2},
		Subjects:   []int{0, 1, 0, 1, 0, 1},
		NumClasses: 3,
	}
}

func TestValidate(t *testing.T) {
	d := toy()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := toy()
	bad.Y = bad.Y[:3]
	if err := bad.Validate(); err == nil {
		t.Error("expected length mismatch error")
	}
	bad = toy()
	bad.Y[0] = 9
	if err := bad.Validate(); err == nil {
		t.Error("expected label range error")
	}
	bad = toy()
	bad.X[2] = []float64{1, 2}
	if err := bad.Validate(); err == nil {
		t.Error("expected ragged error")
	}
	bad = toy()
	bad.NumClasses = 0
	if err := bad.Validate(); err == nil {
		t.Error("expected NumClasses error")
	}
	bad = toy()
	bad.Subjects = []int{1}
	if err := bad.Validate(); err == nil {
		t.Error("expected subjects length error")
	}
}

func TestSubset(t *testing.T) {
	d := toy()
	s := d.Subset([]int{0, 2, 4})
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	if s.Y[1] != 1 || s.Subjects[2] != 0 {
		t.Errorf("subset contents wrong: %v %v", s.Y, s.Subjects)
	}
	if s.NumFeatures() != 1 {
		t.Errorf("NumFeatures = %d", s.NumFeatures())
	}
	empty := &Dataset{NumClasses: 1}
	if empty.NumFeatures() != 0 {
		t.Error("empty dataset should have 0 features")
	}
}

func TestShuffleKeepsAlignment(t *testing.T) {
	d := toy()
	// Pair each label with its feature to verify alignment post-shuffle.
	orig := map[float64]int{}
	for i := range d.X {
		orig[d.X[i][0]] = d.Y[i]
	}
	d.Shuffle(rand.New(rand.NewSource(3)))
	for i := range d.X {
		if orig[d.X[i][0]] != d.Y[i] {
			t.Fatal("shuffle broke X/Y alignment")
		}
	}
}

func TestClassCounts(t *testing.T) {
	d := toy()
	c := d.ClassCounts()
	if c[0] != 2 || c[1] != 2 || c[2] != 2 {
		t.Errorf("ClassCounts = %v", c)
	}
}

func TestSubjectIDs(t *testing.T) {
	d := toy()
	ids := d.SubjectIDs()
	if len(ids) != 2 || ids[0] != 0 || ids[1] != 1 {
		t.Errorf("SubjectIDs = %v", ids)
	}
}

func TestSplitBySubjects(t *testing.T) {
	d := toy()
	train, test, err := SplitBySubjects(d, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if train.Len() != 3 || test.Len() != 3 {
		t.Fatalf("split sizes = %d/%d", train.Len(), test.Len())
	}
	for _, s := range test.Subjects {
		if s != 1 {
			t.Error("test contains non-test subject")
		}
	}
	for _, s := range train.Subjects {
		if s == 1 {
			t.Error("train contains test subject")
		}
	}
	if _, _, err := SplitBySubjects(d, []int{0, 1}); err == nil {
		t.Error("expected empty-side error")
	}
	noSub := toy()
	noSub.Subjects = nil
	if _, _, err := SplitBySubjects(noSub, []int{0}); err == nil {
		t.Error("expected no-subjects error")
	}
}

func TestStratifiedSplit(t *testing.T) {
	// 30 samples per class.
	d := &Dataset{Name: "s", NumClasses: 3}
	for c := 0; c < 3; c++ {
		for i := 0; i < 30; i++ {
			d.X = append(d.X, []float64{float64(c)})
			d.Y = append(d.Y, c)
		}
	}
	train, test, err := StratifiedSplit(d, 0.2, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	tc := test.ClassCounts()
	for c, n := range tc {
		if n != 6 {
			t.Errorf("class %d test count = %d, want 6", c, n)
		}
	}
	if train.Len()+test.Len() != d.Len() {
		t.Error("split lost samples")
	}
	if _, _, err := StratifiedSplit(d, 0, nil); err == nil {
		t.Error("expected frac error")
	}
	if _, _, err := StratifiedSplit(d, 1.5, nil); err == nil {
		t.Error("expected frac error")
	}
}

func TestImbalance(t *testing.T) {
	d := &Dataset{Name: "i", NumClasses: 2}
	for i := 0; i < 100; i++ {
		d.X = append(d.X, []float64{float64(i)})
		d.Y = append(d.Y, i%2)
	}
	rng := rand.New(rand.NewSource(2))
	out, err := Imbalance(d, 0, 0.8, rng)
	if err != nil {
		t.Fatal(err)
	}
	c := out.ClassCounts()
	if c[0] != 50 {
		t.Errorf("target class count = %d, want 50", c[0])
	}
	if c[1] != 10 { // (1-0.8)*50
		t.Errorf("other class count = %d, want 10", c[1])
	}
	// r=0 keeps everything.
	full, _ := Imbalance(d, 0, 0, rng)
	if full.Len() != 100 {
		t.Errorf("r=0 should keep all samples, got %d", full.Len())
	}
	if _, err := Imbalance(d, 0, 1, rng); err == nil {
		t.Error("expected r range error")
	}
	if _, err := Imbalance(d, 9, 0.5, rng); err == nil {
		t.Error("expected target range error")
	}
}

func TestImbalanceKeepsMinorityRepresented(t *testing.T) {
	d := &Dataset{Name: "i2", NumClasses: 2}
	for i := 0; i < 10; i++ {
		d.X = append(d.X, []float64{float64(i)})
		d.Y = append(d.Y, i%2)
	}
	out, err := Imbalance(d, 0, 0.9, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if out.ClassCounts()[1] < 1 {
		t.Error("non-target class must keep at least one sample")
	}
}

func TestAddLabelNoise(t *testing.T) {
	d := toy()
	orig := append([]int(nil), d.Y...)
	n, err := AddLabelNoise(d, 1.0, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	if n != d.Len() {
		t.Errorf("flipped %d, want all %d", n, d.Len())
	}
	for i := range d.Y {
		if d.Y[i] == orig[i] {
			t.Error("frac=1 must flip every label to a different class")
		}
		if d.Y[i] < 0 || d.Y[i] >= d.NumClasses {
			t.Error("noisy label out of range")
		}
	}
	if _, err := AddLabelNoise(d, -0.1, nil); err == nil {
		t.Error("expected frac error")
	}
	one := &Dataset{Y: []int{0}, X: [][]float64{{1}}, NumClasses: 1}
	if _, err := AddLabelNoise(one, 0.5, nil); err == nil {
		t.Error("expected class-count error")
	}
}

// Property: Subset never changes labels/subjects pairing.
func TestSubsetAlignmentQuick(t *testing.T) {
	d := toy()
	f := func(raw []uint8) bool {
		idx := make([]int, 0, len(raw))
		for _, r := range raw {
			idx = append(idx, int(r)%d.Len())
		}
		s := d.Subset(idx)
		for i, id := range idx {
			if s.Y[i] != d.Y[id] || s.Subjects[i] != d.Subjects[id] || &s.X[i][0] != &d.X[id][0] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: Imbalance never increases any class count and never touches
// the target class.
func TestImbalanceMonotoneQuick(t *testing.T) {
	base := &Dataset{Name: "q", NumClasses: 3}
	for i := 0; i < 90; i++ {
		base.X = append(base.X, []float64{float64(i)})
		base.Y = append(base.Y, i%3)
	}
	f := func(rRaw uint8, seed int64) bool {
		r := float64(rRaw%100) / 100.0 // [0, 0.99]
		out, err := Imbalance(base, 1, r, rand.New(rand.NewSource(seed)))
		if err != nil {
			return false
		}
		c := out.ClassCounts()
		b := base.ClassCounts()
		if c[1] != b[1] {
			return false
		}
		return c[0] <= b[0] && c[2] <= b[2] && c[0] >= 1 && c[2] >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// The helpers below have no caller in the evaluation, which splits by
// subject; they live beside the tests that check them.

// ClassCounts returns per-class sample counts.
func (d *Dataset) ClassCounts() []int {
	counts := make([]int, d.NumClasses)
	for _, y := range d.Y {
		if y >= 0 && y < d.NumClasses {
			counts[y]++
		}
	}
	return counts
}

// SubjectIDs returns the sorted distinct subject identifiers.
func (d *Dataset) SubjectIDs() []int {
	seen := map[int]bool{}
	var ids []int
	for _, s := range d.Subjects {
		if !seen[s] {
			seen[s] = true
			ids = append(ids, s)
		}
	}
	// insertion-order stable is fine, but sort for determinism
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	return ids
}

// StratifiedSplit splits per class with the given test fraction, shuffling
// within classes using rng. testFrac must lie in (0, 1).
func StratifiedSplit(d *Dataset, testFrac float64, rng *rand.Rand) (train, test *Dataset, err error) {
	if testFrac <= 0 || testFrac >= 1 {
		return nil, nil, fmt.Errorf("dataset: testFrac %v outside (0,1)", testFrac)
	}
	byClass := make([][]int, d.NumClasses)
	for i, y := range d.Y {
		if y < 0 || y >= d.NumClasses {
			return nil, nil, fmt.Errorf("dataset %q: label %d out of range", d.Name, y)
		}
		byClass[y] = append(byClass[y], i)
	}
	var trainIdx, testIdx []int
	for _, idx := range byClass {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		nTest := int(float64(len(idx)) * testFrac)
		testIdx = append(testIdx, idx[:nTest]...)
		trainIdx = append(trainIdx, idx[nTest:]...)
	}
	if len(trainIdx) == 0 || len(testIdx) == 0 {
		return nil, nil, fmt.Errorf("dataset %q: stratified split produced empty side", d.Name)
	}
	return d.Subset(trainIdx), d.Subset(testIdx), nil
}
