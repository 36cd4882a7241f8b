package signal

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMovingAverageBasic(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	got := MovingAverage(x, 2)
	want := []float64{1, 1.5, 2.5, 3.5, 4.5}
	for i := range want {
		if !almostEq(got[i], want[i], 1e-12) {
			t.Fatalf("MA = %v, want %v", got, want)
		}
	}
}

func TestMovingAverageDegenerate(t *testing.T) {
	x := []float64{1, 2, 3}
	got := MovingAverage(x, 1)
	for i := range x {
		if got[i] != x[i] {
			t.Fatal("window 1 should copy input")
		}
	}
	if len(MovingAverage(nil, 5)) != 0 {
		t.Error("empty input should give empty output")
	}
}

func TestMovingAverageConstantSignal(t *testing.T) {
	x := make([]float64, 100)
	for i := range x {
		x[i] = 7
	}
	got := MovingAverage(x, 30)
	for _, v := range got {
		if !almostEq(v, 7, 1e-12) {
			t.Fatal("constant signal must stay constant")
		}
	}
}

func TestMovingAverageReducesVariance(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, 2000)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	sm := MovingAverage(x, 30)
	varOf := func(v []float64) float64 {
		var m float64
		for _, u := range v {
			m += u
		}
		m /= float64(len(v))
		var s float64
		for _, u := range v {
			s += (u - m) * (u - m)
		}
		return s / float64(len(v))
	}
	if varOf(sm) >= varOf(x)/5 {
		t.Errorf("window-30 smoothing should cut noise variance ~30x: %v vs %v", varOf(sm), varOf(x))
	}
}

func TestSlidingWindows(t *testing.T) {
	ws, err := SlidingWindows(10, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	// starts at 0, 3, 6 (6+4=10 fits); next would be 9+4 > 10.
	if len(ws) != 3 {
		t.Fatalf("got %d windows, want 3: %v", len(ws), ws)
	}
	if ws[2].Start != 6 || ws[2].End != 10 {
		t.Errorf("last window = %+v", ws[2])
	}
	if _, err := SlidingWindows(10, 0, 1); err == nil {
		t.Error("expected size error")
	}
	if _, err := SlidingWindows(10, 1, 0); err == nil {
		t.Error("expected step error")
	}
	if _, err := SlidingWindows(-1, 1, 1); err == nil {
		t.Error("expected length error")
	}
	ws, err = SlidingWindows(3, 10, 1)
	if err != nil || len(ws) != 0 {
		t.Error("short signal should yield no windows")
	}
}

func TestWindowStats(t *testing.T) {
	mn, mx, mean, std := WindowStats([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if mn != 2 || mx != 9 {
		t.Errorf("min/max = %v/%v", mn, mx)
	}
	if !almostEq(mean, 5, 1e-12) || !almostEq(std, 2, 1e-12) {
		t.Errorf("mean/std = %v/%v, want 5/2", mean, std)
	}
	mn, mx, mean, std = WindowStats(nil)
	if mn != 0 || mx != 0 || mean != 0 || std != 0 {
		t.Error("empty window should be all zeros")
	}
}

func TestExtractFeatures(t *testing.T) {
	ch1 := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	ch2 := []float64{8, 7, 6, 5, 4, 3, 2, 1}
	rows, err := ExtractFeatures([][]float64{ch1, ch2}, 1, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	if len(rows[0]) != 8 { // 2 channels x 4 features
		t.Fatalf("got %d features, want 8", len(rows[0]))
	}
	// First window of ch1 = {1,2,3,4}: min 1, max 4, mean 2.5.
	if rows[0][0] != 1 || rows[0][1] != 4 || !almostEq(rows[0][2], 2.5, 1e-12) {
		t.Errorf("ch1 features = %v", rows[0][:4])
	}
	if _, err := ExtractFeatures(nil, 1, 4, 4); err == nil {
		t.Error("expected no-channels error")
	}
	if _, err := ExtractFeatures([][]float64{{1, 2}, {1}}, 1, 1, 1); err == nil {
		t.Error("expected ragged-channel error")
	}
}

func TestWindowLabels(t *testing.T) {
	labels := []int{0, 0, 1, 1, 1, 2}
	wins := []Window{{0, 3}, {2, 5}, {3, 6}}
	got, err := WindowLabels(labels, wins, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 || got[1] != 1 || got[2] != 1 {
		t.Errorf("WindowLabels = %v", got)
	}
	if _, err := WindowLabels(labels, []Window{{0, 99}}, 3); err == nil {
		t.Error("expected out-of-range window error")
	}
	if _, err := WindowLabels([]int{5}, []Window{{0, 1}}, 3); err == nil {
		t.Error("expected out-of-range label error")
	}
	if _, err := WindowLabels(labels, wins, 0); err == nil {
		t.Error("expected numClasses error")
	}
}

func TestZScoreNormalizer(t *testing.T) {
	rows := [][]float64{{1, 10}, {3, 30}, {5, 50}}
	n, err := FitNormalizer(rows, ZScore)
	if err != nil {
		t.Fatal(err)
	}
	out, err := n.Apply(rows)
	if err != nil {
		t.Fatal(err)
	}
	// Each column should now have mean ~0.
	for j := 0; j < 2; j++ {
		var s float64
		for _, r := range out {
			s += r[j]
		}
		if !almostEq(s/3, 0, 1e-12) {
			t.Errorf("column %d mean = %v, want 0", j, s/3)
		}
	}
}

func TestMinMaxNormalizer(t *testing.T) {
	rows := [][]float64{{0, 100}, {5, 200}, {10, 300}}
	n, err := FitNormalizer(rows, MinMax)
	if err != nil {
		t.Fatal(err)
	}
	out, _ := n.Apply(rows)
	if out[0][0] != 0 || out[2][0] != 1 {
		t.Errorf("min-max scaling wrong: %v", out)
	}
	// Test data outside the fitted range maps outside [0,1] but linearly.
	test := [][]float64{{20, 400}}
	out2, _ := n.Apply(test)
	if !almostEq(out2[0][0], 2, 1e-12) {
		t.Errorf("extrapolation = %v, want 2", out2[0][0])
	}
}

func TestNormalizerConstantColumn(t *testing.T) {
	rows := [][]float64{{5, 1}, {5, 2}}
	n, err := FitNormalizer(rows, ZScore)
	if err != nil {
		t.Fatal(err)
	}
	out, _ := n.Apply(rows)
	if out[0][0] != 0 || out[1][0] != 0 {
		t.Error("constant column should normalize to 0")
	}
	for _, r := range out {
		for _, v := range r {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatal("normalizer produced NaN/Inf")
			}
		}
	}
}

func TestNormalizerErrors(t *testing.T) {
	if _, err := FitNormalizer(nil, ZScore); err == nil {
		t.Error("expected empty error")
	}
	if _, err := FitNormalizer([][]float64{{1}, {1, 2}}, ZScore); err == nil {
		t.Error("expected ragged error")
	}
	if _, err := FitNormalizer([][]float64{{1}}, NormKind(9)); err == nil {
		t.Error("expected unknown-kind error")
	}
	n, _ := FitNormalizer([][]float64{{1, 2}}, ZScore)
	if _, err := n.Apply([][]float64{{1}}); err == nil {
		t.Error("expected column-count error")
	}
}

// Property: moving average output is bounded by input min/max.
func TestMovingAverageBoundsQuick(t *testing.T) {
	f := func(raw []float64, winRaw uint8) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			xs = append(xs, math.Mod(v, 1e6))
		}
		if len(xs) == 0 {
			return true
		}
		win := int(winRaw)%40 + 1
		out := MovingAverage(xs, win)
		lo, hi := xs[0], xs[0]
		for _, v := range xs {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		for _, v := range out {
			if v < lo-1e-9 || v > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: windows returned by SlidingWindows tile within bounds and have
// the requested size.
func TestSlidingWindowsInvariantQuick(t *testing.T) {
	f := func(nRaw, sizeRaw, stepRaw uint8) bool {
		n := int(nRaw)
		size := int(sizeRaw)%50 + 1
		step := int(stepRaw)%20 + 1
		ws, err := SlidingWindows(n, size, step)
		if err != nil {
			return false
		}
		for _, w := range ws {
			if w.Start < 0 || w.End > n || w.End-w.Start != size {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// WindowLabels assigns each window the majority label of its samples.
func WindowLabels(labels []int, wins []Window, numClasses int) ([]int, error) {
	if numClasses <= 0 {
		return nil, fmt.Errorf("signal: numClasses must be positive")
	}
	out := make([]int, len(wins))
	counts := make([]int, numClasses)
	for wi, w := range wins {
		if w.Start < 0 || w.End > len(labels) {
			return nil, fmt.Errorf("signal: window [%d,%d) outside labels of length %d", w.Start, w.End, len(labels))
		}
		for i := range counts {
			counts[i] = 0
		}
		for _, l := range labels[w.Start:w.End] {
			if l < 0 || l >= numClasses {
				return nil, fmt.Errorf("signal: label %d out of range", l)
			}
			counts[l]++
		}
		best := 0
		for c, cnt := range counts {
			if cnt > counts[best] {
				best = c
			}
		}
		out[wi] = best
	}
	return out, nil
}
