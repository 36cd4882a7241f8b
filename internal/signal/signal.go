// Package signal implements the preprocessing pipeline from the paper's
// Section IV: a moving-average filter with window size 30, sliding-window
// segmentation, per-channel statistical features (minimum, maximum, mean,
// standard deviation), and normalization fitted on training data only.
package signal

import (
	"fmt"
	"math"
)

// MovingAverage smooths x with a trailing window of the given size,
// returning a slice of the same length. Positions before a full window
// average over the samples available so far. window <= 1 returns a copy.
func MovingAverage(x []float64, window int) []float64 {
	out := make([]float64, len(x))
	if window <= 1 {
		copy(out, x)
		return out
	}
	var sum float64
	for i, v := range x {
		sum += v
		if i >= window {
			sum -= x[i-window]
			out[i] = sum / float64(window)
		} else {
			out[i] = sum / float64(i+1)
		}
	}
	return out
}

// Window is a half-open index range [Start, End) into a signal.
type Window struct{ Start, End int }

// SlidingWindows returns the windows of the given size advancing by step
// over a signal of length n. It returns an error for invalid parameters;
// a signal shorter than one window yields no windows.
func SlidingWindows(n, size, step int) ([]Window, error) {
	if size <= 0 || step <= 0 {
		return nil, fmt.Errorf("signal: size and step must be positive, got size=%d step=%d", size, step)
	}
	if n < 0 {
		return nil, fmt.Errorf("signal: negative length %d", n)
	}
	var ws []Window
	for s := 0; s+size <= n; s += step {
		ws = append(ws, Window{Start: s, End: s + size})
	}
	return ws, nil
}

// WindowStats returns the four statistical features the paper extracts
// from each window: minimum, maximum, mean, standard deviation.
func WindowStats(x []float64) (min, max, mean, std float64) {
	if len(x) == 0 {
		return 0, 0, 0, 0
	}
	min, max = x[0], x[0]
	var sum float64
	for _, v := range x {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
		sum += v
	}
	mean = sum / float64(len(x))
	var ss float64
	for _, v := range x {
		d := v - mean
		ss += d * d
	}
	std = math.Sqrt(ss / float64(len(x)))
	return min, max, mean, std
}

// FeaturesPerChannel is the number of statistical features extracted from
// each channel of each window (min, max, mean, std).
const FeaturesPerChannel = 4

// ExtractFeatures runs the full preprocessing pipeline on multichannel
// data: moving-average smoothing (window smoothWin) per channel, sliding
// windows of winSize advancing by step, and per-channel window statistics.
// channels must be non-empty and equally long. The result has one row per
// window and FeaturesPerChannel*len(channels) columns.
func ExtractFeatures(channels [][]float64, smoothWin, winSize, step int) ([][]float64, error) {
	if len(channels) == 0 {
		return nil, fmt.Errorf("signal: no channels")
	}
	n := len(channels[0])
	for i, ch := range channels {
		if len(ch) != n {
			return nil, fmt.Errorf("signal: channel %d length %d != %d", i, len(ch), n)
		}
	}
	smoothed := make([][]float64, len(channels))
	for i, ch := range channels {
		smoothed[i] = MovingAverage(ch, smoothWin)
	}
	wins, err := SlidingWindows(n, winSize, step)
	if err != nil {
		return nil, err
	}
	rows := make([][]float64, len(wins))
	for wi, w := range wins {
		row := make([]float64, 0, FeaturesPerChannel*len(channels))
		for _, ch := range smoothed {
			mn, mx, mean, std := WindowStats(ch[w.Start:w.End])
			row = append(row, mn, mx, mean, std)
		}
		rows[wi] = row
	}
	return rows, nil
}

// Normalizer rescales feature columns using statistics fitted on training
// data. The paper normalizes "to address varying ranges ... to ensure
// consistent scaling".
type Normalizer struct {
	Kind   NormKind
	mean   []float64
	scale  []float64 // std for ZScore, (max-min) for MinMax
	offset []float64 // min for MinMax
}

// NormKind selects the normalization scheme.
type NormKind int

const (
	// ZScore centers each column and divides by its standard deviation.
	ZScore NormKind = iota
	// MinMax rescales each column into [0, 1].
	MinMax
)

// FitNormalizer computes column statistics over rows.
func FitNormalizer(rows [][]float64, kind NormKind) (*Normalizer, error) {
	if len(rows) == 0 || len(rows[0]) == 0 {
		return nil, fmt.Errorf("signal: empty training data")
	}
	cols := len(rows[0])
	n := &Normalizer{Kind: kind,
		mean:   make([]float64, cols),
		scale:  make([]float64, cols),
		offset: make([]float64, cols),
	}
	for _, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("signal: ragged feature rows")
		}
	}
	switch kind {
	case ZScore:
		for j := 0; j < cols; j++ {
			var sum float64
			for _, r := range rows {
				sum += r[j]
			}
			m := sum / float64(len(rows))
			var ss float64
			for _, r := range rows {
				d := r[j] - m
				ss += d * d
			}
			n.mean[j] = m
			n.scale[j] = math.Sqrt(ss / float64(len(rows)))
			if n.scale[j] == 0 {
				n.scale[j] = 1 // constant column: map to 0
			}
		}
	case MinMax:
		for j := 0; j < cols; j++ {
			lo, hi := rows[0][j], rows[0][j]
			for _, r := range rows[1:] {
				if r[j] < lo {
					lo = r[j]
				}
				if r[j] > hi {
					hi = r[j]
				}
			}
			n.offset[j] = lo
			n.scale[j] = hi - lo
			if n.scale[j] == 0 {
				n.scale[j] = 1
			}
		}
	default:
		return nil, fmt.Errorf("signal: unknown normalization kind %d", kind)
	}
	return n, nil
}

// Apply rescales rows in place and returns them for chaining.
func (n *Normalizer) Apply(rows [][]float64) ([][]float64, error) {
	cols := len(n.scale)
	for i, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("signal: row %d has %d columns, want %d", i, len(r), cols)
		}
		for j := range r {
			switch n.Kind {
			case ZScore:
				r[j] = (r[j] - n.mean[j]) / n.scale[j]
			case MinMax:
				r[j] = (r[j] - n.offset[j]) / n.scale[j]
			}
		}
	}
	return rows, nil
}
