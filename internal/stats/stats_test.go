package stats

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.in); !almostEq(got, c.want, 1e-12) {
			t.Errorf("Mean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestVarianceAndStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almostEq(got, 4, 1e-12) {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := Std(xs); !almostEq(got, 2, 1e-12) {
		t.Errorf("Std = %v, want 2", got)
	}
	if got := Variance(nil); got != 0 {
		t.Errorf("Variance(nil) = %v, want 0", got)
	}
}

func TestSampleVariance(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if got := SampleVariance(xs); !almostEq(got, 2.5, 1e-12) {
		t.Errorf("SampleVariance = %v, want 2.5", got)
	}
	if got := SampleVariance([]float64{3}); got != 0 {
		t.Errorf("SampleVariance(single) = %v, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		if got := Median(c.in); !almostEq(got, c.want, 1e-12) {
			t.Errorf("Median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	_ = Median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("Median mutated its input: %v", xs)
	}
}

func TestMAD(t *testing.T) {
	// median = 2, deviations = {1,0,1,4}, median of deviations = 1.
	xs := []float64{1, 2, 3, 6}
	// sorted deviations: 0,1,1,4 -> median 1
	if got := MAD(xs); !almostEq(got, 1, 1e-12) {
		t.Errorf("MAD = %v, want 1", got)
	}
	if got := MAD(nil); got != 0 {
		t.Errorf("MAD(nil) = %v, want 0", got)
	}
}

func TestMinMax(t *testing.T) {
	lo, hi := MinMax([]float64{3, -1, 7, 2})
	if lo != -1 || hi != 7 {
		t.Errorf("MinMax = (%v,%v), want (-1,7)", lo, hi)
	}
	lo, hi = MinMax(nil)
	if lo != 0 || hi != 0 {
		t.Errorf("MinMax(nil) = (%v,%v), want (0,0)", lo, hi)
	}
}

func TestAccuracy(t *testing.T) {
	acc, err := Accuracy([]int{0, 1, 2, 1}, []int{0, 1, 1, 1})
	if err != nil {
		t.Fatalf("Accuracy error: %v", err)
	}
	if !almostEq(acc, 0.75, 1e-12) {
		t.Errorf("Accuracy = %v, want 0.75", acc)
	}
	if _, err := Accuracy([]int{0}, []int{0, 1}); err == nil {
		t.Error("expected length-mismatch error")
	}
	if _, err := Accuracy(nil, nil); err == nil {
		t.Error("expected empty-input error")
	}
}

func TestMacroAccuracy(t *testing.T) {
	// class 0: 2/2 correct, class 1: 1/2 correct -> macro = 0.75,
	// while plain accuracy would be 3/4 too; now skew class counts:
	pred := []int{0, 0, 0, 0, 1}
	truth := []int{0, 0, 0, 0, 0}
	// class 0 recall = 4/5; class 1 absent -> macro = 0.8
	m, err := MacroAccuracy(pred, truth, 2)
	if err != nil {
		t.Fatalf("MacroAccuracy error: %v", err)
	}
	if !almostEq(m, 0.8, 1e-12) {
		t.Errorf("MacroAccuracy = %v, want 0.8", m)
	}
	if _, err := MacroAccuracy([]int{0}, []int{5}, 2); err == nil {
		t.Error("expected out-of-range error")
	}
	if _, err := MacroAccuracy([]int{0}, []int{0}, 0); err == nil {
		t.Error("expected numClasses error")
	}
}

func TestMacroVsPlainOnImbalance(t *testing.T) {
	// A majority-class predictor looks good on plain accuracy but bad on
	// macro accuracy — the reason the paper uses macro for Figure 7.
	var pred, truth []int
	for i := 0; i < 95; i++ {
		pred = append(pred, 0)
		truth = append(truth, 0)
	}
	for i := 0; i < 5; i++ {
		pred = append(pred, 0) // always predicts majority
		truth = append(truth, 1)
	}
	plain, _ := Accuracy(pred, truth)
	macro, _ := MacroAccuracy(pred, truth, 2)
	if plain <= macro {
		t.Errorf("expected plain (%v) > macro (%v) on imbalanced data", plain, macro)
	}
	if !almostEq(macro, 0.5, 1e-12) {
		t.Errorf("macro = %v, want 0.5", macro)
	}
}

func TestConfusionMatrix(t *testing.T) {
	pred := []int{0, 1, 1, 2, 2, 2}
	truth := []int{0, 1, 2, 2, 2, 1}
	cm, err := NewConfusionMatrix(pred, truth, 3)
	if err != nil {
		t.Fatalf("NewConfusionMatrix: %v", err)
	}
	if cm.Total() != 6 {
		t.Errorf("Total = %d, want 6", cm.Total())
	}
	if !almostEq(cm.Accuracy(), 4.0/6.0, 1e-12) {
		t.Errorf("Accuracy = %v, want 2/3", cm.Accuracy())
	}
	if !almostEq(cm.Recall(2), 2.0/3.0, 1e-12) {
		t.Errorf("Recall(2) = %v, want 2/3", cm.Recall(2))
	}
	if !almostEq(cm.Precision(1), 0.5, 1e-12) {
		t.Errorf("Precision(1) = %v, want 0.5", cm.Precision(1))
	}
	if cm.Recall(-1) != 0 || cm.Precision(99) != 0 {
		t.Error("out-of-range class should return 0")
	}
	if _, err := NewConfusionMatrix([]int{3}, []int{0}, 3); err == nil {
		t.Error("expected out-of-range error")
	}
	if _, err := NewConfusionMatrix([]int{0}, []int{0, 1}, 3); err == nil {
		t.Error("expected mismatch error")
	}
}

func TestF1AndMacroF1(t *testing.T) {
	pred := []int{0, 0, 1, 1}
	truth := []int{0, 1, 0, 1}
	cm, err := NewConfusionMatrix(pred, truth, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Both classes: precision=recall=0.5 -> F1=0.5, MacroF1=0.5.
	if !almostEq(cm.F1(0), 0.5, 1e-12) || !almostEq(cm.F1(1), 0.5, 1e-12) {
		t.Errorf("F1 = (%v,%v), want (0.5,0.5)", cm.F1(0), cm.F1(1))
	}
	if !almostEq(cm.MacroF1(), 0.5, 1e-12) {
		t.Errorf("MacroF1 = %v, want 0.5", cm.MacroF1())
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{96, 98, 97})
	if !almostEq(s.Mean, 97, 1e-12) {
		t.Errorf("Mean = %v, want 97", s.Mean)
	}
	if !almostEq(s.Std, 1, 1e-12) {
		t.Errorf("Std = %v, want 1", s.Std)
	}
	if s.N != 3 {
		t.Errorf("N = %d, want 3", s.N)
	}
	if got := s.String(); got != "97.00 ± 1.00" {
		t.Errorf("String = %q", got)
	}
}

func TestArgMax(t *testing.T) {
	if got := ArgMax(nil); got != -1 {
		t.Errorf("ArgMax(nil) = %d, want -1", got)
	}
	if got := ArgMax([]float64{1, 3, 2}); got != 1 {
		t.Errorf("ArgMax = %d, want 1", got)
	}
	// Ties break toward the lower index.
	if got := ArgMax([]float64{2, 2, 1}); got != 0 {
		t.Errorf("ArgMax tie = %d, want 0", got)
	}
}

// Property: MAD is translation-invariant and scales with |a|.
func TestMADPropertiesQuick(t *testing.T) {
	f := func(raw []float64, shiftRaw float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
				continue
			}
			xs = append(xs, v)
		}
		if len(xs) == 0 {
			return true
		}
		shift := math.Mod(shiftRaw, 1000)
		if math.IsNaN(shift) || math.IsInf(shift, 0) {
			shift = 1
		}
		shifted := make([]float64, len(xs))
		for i, v := range xs {
			shifted[i] = v + shift
		}
		return almostEq(MAD(shifted), MAD(xs), 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: accuracy of a prediction equal to truth is always 1.
func TestAccuracyPerfectQuick(t *testing.T) {
	f := func(labels []uint8) bool {
		if len(labels) == 0 {
			return true
		}
		truth := make([]int, len(labels))
		for i, l := range labels {
			truth[i] = int(l % 7)
		}
		acc, err := Accuracy(truth, truth)
		return err == nil && acc == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: macro accuracy is bounded in [0, 1].
func TestMacroAccuracyBoundsQuick(t *testing.T) {
	f := func(p, tr []uint8) bool {
		n := len(p)
		if len(tr) < n {
			n = len(tr)
		}
		if n == 0 {
			return true
		}
		pred := make([]int, n)
		truth := make([]int, n)
		for i := 0; i < n; i++ {
			pred[i] = int(p[i] % 5)
			truth[i] = int(tr[i] % 5)
		}
		m, err := MacroAccuracy(pred, truth, 5)
		return err == nil && m >= 0 && m <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// The population statistics, the confusion matrix and ArgMax below have
// no caller in the evaluation, which reports accuracy, macro accuracy
// and sample statistics; they live beside the tests that check them.

// Variance returns the population variance of xs (dividing by n, not n-1).
// It returns 0 for inputs with fewer than one element.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// Std returns the population standard deviation of xs.
func Std(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// MinMax returns the minimum and maximum of xs.
// It returns (0, 0) for empty input.
func MinMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// ConfusionMatrix counts prediction outcomes: cell [i][j] is the number of
// samples with true class i predicted as class j.
type ConfusionMatrix struct {
	K     int     // number of classes
	Cells [][]int // K x K counts
}

// NewConfusionMatrix builds a confusion matrix from predictions.
// Labels outside [0, k) yield an error.
func NewConfusionMatrix(pred, truth []int, k int) (*ConfusionMatrix, error) {
	if len(pred) != len(truth) {
		return nil, fmt.Errorf("stats: length mismatch pred=%d truth=%d", len(pred), len(truth))
	}
	if k <= 0 {
		return nil, fmt.Errorf("stats: k must be positive, got %d", k)
	}
	cm := &ConfusionMatrix{K: k, Cells: make([][]int, k)}
	for i := range cm.Cells {
		cm.Cells[i] = make([]int, k)
	}
	for i := range truth {
		t, p := truth[i], pred[i]
		if t < 0 || t >= k || p < 0 || p >= k {
			return nil, fmt.Errorf("stats: label out of range: truth=%d pred=%d k=%d", t, p, k)
		}
		cm.Cells[t][p]++
	}
	return cm, nil
}

// Total returns the number of samples counted.
func (cm *ConfusionMatrix) Total() int {
	n := 0
	for _, row := range cm.Cells {
		for _, c := range row {
			n += c
		}
	}
	return n
}

// Accuracy returns trace/total; 0 when empty.
func (cm *ConfusionMatrix) Accuracy() float64 {
	n := cm.Total()
	if n == 0 {
		return 0
	}
	diag := 0
	for i := 0; i < cm.K; i++ {
		diag += cm.Cells[i][i]
	}
	return float64(diag) / float64(n)
}

// Recall returns the recall of class c (0 when the class is absent).
func (cm *ConfusionMatrix) Recall(c int) float64 {
	if c < 0 || c >= cm.K {
		return 0
	}
	row := 0
	for _, v := range cm.Cells[c] {
		row += v
	}
	if row == 0 {
		return 0
	}
	return float64(cm.Cells[c][c]) / float64(row)
}

// Precision returns the precision of class c (0 when never predicted).
func (cm *ConfusionMatrix) Precision(c int) float64 {
	if c < 0 || c >= cm.K {
		return 0
	}
	col := 0
	for i := 0; i < cm.K; i++ {
		col += cm.Cells[i][c]
	}
	if col == 0 {
		return 0
	}
	return float64(cm.Cells[c][c]) / float64(col)
}

// F1 returns the harmonic mean of precision and recall for class c.
func (cm *ConfusionMatrix) F1(c int) float64 {
	p, r := cm.Precision(c), cm.Recall(c)
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// MacroF1 returns the unweighted mean F1 over classes present in truth.
func (cm *ConfusionMatrix) MacroF1() float64 {
	var sum float64
	present := 0
	for c := 0; c < cm.K; c++ {
		row := 0
		for _, v := range cm.Cells[c] {
			row += v
		}
		if row == 0 {
			continue
		}
		present++
		sum += cm.F1(c)
	}
	if present == 0 {
		return 0
	}
	return sum / float64(present)
}

// ArgMax returns the index of the largest element, breaking ties toward the
// lowest index. It returns -1 for empty input.
func ArgMax(xs []float64) int {
	if len(xs) == 0 {
		return -1
	}
	best := 0
	for i, x := range xs[1:] {
		if x > xs[best] {
			best = i + 1
		}
	}
	return best
}
