// Package stats provides the evaluation metrics and descriptive statistics
// used throughout the BoostHD evaluation: plain and macro-averaged accuracy,
// mean and sample standard deviation, median, and the median absolute
// deviation (MAD) robustness measure from the paper's Figure 8.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty is returned by aggregate statistics invoked on empty inputs.
var ErrEmpty = errors.New("stats: empty input")

// Mean returns the arithmetic mean of xs. It returns 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// SampleVariance returns the unbiased sample variance (dividing by n-1).
// It returns 0 for inputs with fewer than two elements.
func SampleVariance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs)-1)
}

// SampleStd returns the sample standard deviation of xs.
func SampleStd(xs []float64) float64 { return math.Sqrt(SampleVariance(xs)) }

// Median returns the median of xs without mutating the input.
// It returns 0 for empty input.
func Median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	tmp := make([]float64, n)
	copy(tmp, xs)
	sort.Float64s(tmp)
	if n%2 == 1 {
		return tmp[n/2]
	}
	return 0.5 * (tmp[n/2-1] + tmp[n/2])
}

// MAD returns the median absolute deviation,
// median(|x_i - median(x)|), the robustness statistic the paper uses to
// compare accuracy traces under bit-flip noise (Figure 8).
func MAD(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	med := Median(xs)
	dev := make([]float64, len(xs))
	for i, x := range xs {
		dev[i] = math.Abs(x - med)
	}
	return Median(dev)
}

// Accuracy returns the fraction of positions where pred equals truth.
// It returns an error when the slices differ in length or are empty.
func Accuracy(pred, truth []int) (float64, error) {
	if len(pred) != len(truth) {
		return 0, fmt.Errorf("stats: length mismatch pred=%d truth=%d", len(pred), len(truth))
	}
	if len(pred) == 0 {
		return 0, ErrEmpty
	}
	correct := 0
	for i := range pred {
		if pred[i] == truth[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(pred)), nil
}

// MacroAccuracy returns the unweighted mean of per-class recalls over the
// classes that appear in truth. The paper uses it for the imbalanced
// overfitting study (Figure 7) so that rare classes count equally.
func MacroAccuracy(pred, truth []int, numClasses int) (float64, error) {
	if len(pred) != len(truth) {
		return 0, fmt.Errorf("stats: length mismatch pred=%d truth=%d", len(pred), len(truth))
	}
	if len(pred) == 0 {
		return 0, ErrEmpty
	}
	if numClasses <= 0 {
		return 0, fmt.Errorf("stats: numClasses must be positive, got %d", numClasses)
	}
	correct := make([]int, numClasses)
	total := make([]int, numClasses)
	for i := range truth {
		c := truth[i]
		if c < 0 || c >= numClasses {
			return 0, fmt.Errorf("stats: label %d out of range [0,%d)", c, numClasses)
		}
		total[c]++
		if pred[i] == c {
			correct[c]++
		}
	}
	var sum float64
	present := 0
	for c := 0; c < numClasses; c++ {
		if total[c] == 0 {
			continue
		}
		present++
		sum += float64(correct[c]) / float64(total[c])
	}
	if present == 0 {
		return 0, ErrEmpty
	}
	return sum / float64(present), nil
}

// Summary holds mean ± std over repeated runs, as reported in Table I.
type Summary struct {
	Mean float64
	Std  float64
	N    int
}

// Summarize aggregates repeated measurements into a Summary.
func Summarize(runs []float64) Summary {
	return Summary{Mean: Mean(runs), Std: SampleStd(runs), N: len(runs)}
}

// String renders "97.13 ± 0.06"-style output matching the paper's tables.
func (s Summary) String() string {
	return fmt.Sprintf("%.2f ± %.2f", s.Mean, s.Std)
}
