// Package ensemble implements the sequential boosting core of the paper's
// Algorithm 1: multiclass AdaBoost (SAMME) sample re-weighting shared by
// BoostHD (over partitioned OnlineHD weak learners) and the tree-based
// AdaBoost baseline. The package is agnostic to the weak learner — callers
// supply a training callback and receive per-round importance weights
// alpha_i and the evolving sample distribution.
package ensemble

import (
	"fmt"
	"math"
)

// TrainRound fits the round-th weak learner under the sample distribution w
// (non-negative, summing to 1) and returns its predictions on the full
// training set.
type TrainRound func(round int, w []float64) (pred []int, err error)

// Result captures one boosting round.
type Result struct {
	Alpha       float64 // learner importance (log-odds scale)
	WeightedErr float64 // weighted training error of the round
}

// Boost runs `rounds` of SAMME over labels y drawn from `classes` classes.
// Each round calls train with the current sample distribution, scores the
// returned predictions, computes alpha_i = ln((1-err)/err) + ln(K-1), and
// re-weights misclassified samples by exp(alpha_i).
//
// Rounds whose weighted error reaches the random-guessing bound
// (1 - 1/K) get alpha = 0: they keep their slot (BoostHD keeps all NL
// dimension partitions) but contribute no vote. A perfect round gets a
// large finite alpha and resets the distribution to uniform, matching the
// standard SAMME safeguards.
func Boost(y []int, classes, rounds int, train TrainRound) ([]Result, error) {
	if classes < 2 {
		return nil, fmt.Errorf("ensemble: need >= 2 classes, got %d", classes)
	}
	if rounds < 1 {
		return nil, fmt.Errorf("ensemble: need >= 1 round, got %d", rounds)
	}
	n := len(y)
	if n == 0 {
		return nil, fmt.Errorf("ensemble: empty training set")
	}
	for i, l := range y {
		if l < 0 || l >= classes {
			return nil, fmt.Errorf("ensemble: label %d at %d outside [0,%d)", l, i, classes)
		}
	}

	w := make([]float64, n)
	uniform := 1 / float64(n)
	for i := range w {
		w[i] = uniform
	}
	logK1 := math.Log(float64(classes - 1))

	results := make([]Result, 0, rounds)
	for r := 0; r < rounds; r++ {
		pred, err := train(r, w)
		if err != nil {
			return nil, fmt.Errorf("ensemble: round %d: %w", r, err)
		}
		if len(pred) != n {
			return nil, fmt.Errorf("ensemble: round %d returned %d predictions, want %d", r, len(pred), n)
		}
		var werr float64
		for i := range pred {
			if pred[i] != y[i] {
				werr += w[i]
			}
		}
		res := Result{WeightedErr: werr}
		switch {
		case werr <= 0:
			// Perfect learner: cap alpha, restart the distribution so
			// later learners still see the whole data.
			res.Alpha = math.Log(1e10) + logK1
			for i := range w {
				w[i] = uniform
			}
		case werr >= 1-1/float64(classes):
			res.Alpha = 0 // no better than chance: silent vote
		default:
			res.Alpha = math.Log((1-werr)/werr) + logK1
			var sum float64
			scale := math.Exp(res.Alpha)
			for i := range w {
				if pred[i] != y[i] {
					w[i] *= scale
				}
				sum += w[i]
			}
			for i := range w {
				w[i] /= sum
			}
		}
		results = append(results, res)
	}
	return results, nil
}

// VoteAggregate combines per-learner class votes using alpha weights:
// the prediction is argmax_k sum_i alpha_i * 1[pred_i == k], the inference
// rule of the paper's Algorithm 1. votes[i] is learner i's predicted class.
//
// A votes/alphas length mismatch or an out-of-range vote is a programmer
// error — every learner must vote and every vote must be a class — and
// panics. Silently skipping the bad entries (the old behavior) miscounts
// the election: a healthcare prediction backed by half the ensemble must
// not look like one backed by all of it.
func VoteAggregate(votes []int, alphas []float64, classes int) int {
	if len(votes) != len(alphas) {
		panic(fmt.Sprintf("ensemble: %d votes for %d alphas", len(votes), len(alphas)))
	}
	scores := make([]float64, classes)
	for i, v := range votes {
		if v < 0 || v >= classes {
			panic(fmt.Sprintf("ensemble: vote %d at %d outside [0,%d)", v, i, classes))
		}
		scores[v] += alphas[i]
	}
	best := 0
	for k := 1; k < classes; k++ {
		if scores[k] > scores[best] {
			best = k
		}
	}
	return best
}

// WeightedSample draws n indices with replacement proportionally to w
// using the provided uniform source (values in [0,1)). It implements the
// bootstrap option the paper enables for OnlineHD and ensemble training.
func WeightedSample(w []float64, n int, uniform func() float64) ([]int, error) {
	if len(w) == 0 {
		return nil, fmt.Errorf("ensemble: empty weights")
	}
	cum := make([]float64, len(w))
	var sum float64
	for i, x := range w {
		if x < 0 || math.IsNaN(x) {
			return nil, fmt.Errorf("ensemble: invalid weight %v at %d", x, i)
		}
		sum += x
		cum[i] = sum
	}
	if sum <= 0 {
		return nil, fmt.Errorf("ensemble: weights sum to %v", sum)
	}
	out := make([]int, n)
	for j := 0; j < n; j++ {
		u := uniform() * sum
		// Binary search the cumulative distribution.
		lo, hi := 0, len(cum)-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cum[mid] < u {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		out[j] = lo
	}
	return out, nil
}
