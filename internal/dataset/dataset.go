// Package dataset provides the tabular dataset substrate for the BoostHD
// evaluation: feature/label containers, subject-aware splits (the paper
// organizes test data "by subject units"), the Eq. 8 class-imbalance
// generator used by the overfitting study (Figure 7), and label-noise
// injection.
package dataset

import (
	"fmt"
	"math/rand"
)

// Dataset is a labeled feature matrix with optional per-sample subject
// identifiers used for subject-wise evaluation.
type Dataset struct {
	Name       string
	X          [][]float64
	Y          []int
	Subjects   []int // optional: len 0 or len(Y)
	NumClasses int
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Y) }

// NumFeatures returns the feature dimensionality (0 when empty).
func (d *Dataset) NumFeatures() int {
	if len(d.X) == 0 {
		return 0
	}
	return len(d.X[0])
}

// Validate checks structural invariants: matching lengths, rectangular
// features, labels within [0, NumClasses).
func (d *Dataset) Validate() error {
	if len(d.X) != len(d.Y) {
		return fmt.Errorf("dataset %q: %d feature rows vs %d labels", d.Name, len(d.X), len(d.Y))
	}
	if len(d.Subjects) != 0 && len(d.Subjects) != len(d.Y) {
		return fmt.Errorf("dataset %q: %d subjects vs %d labels", d.Name, len(d.Subjects), len(d.Y))
	}
	if d.NumClasses <= 0 {
		return fmt.Errorf("dataset %q: NumClasses = %d", d.Name, d.NumClasses)
	}
	cols := -1
	for i, row := range d.X {
		if cols == -1 {
			cols = len(row)
		}
		if len(row) != cols {
			return fmt.Errorf("dataset %q: ragged row %d (%d cols, want %d)", d.Name, i, len(row), cols)
		}
	}
	for i, y := range d.Y {
		if y < 0 || y >= d.NumClasses {
			return fmt.Errorf("dataset %q: label %d at row %d outside [0,%d)", d.Name, y, i, d.NumClasses)
		}
	}
	return nil
}

// Subset returns a new dataset holding the rows at idx (feature rows are
// shared, not copied).
func (d *Dataset) Subset(idx []int) *Dataset {
	out := &Dataset{
		Name:       d.Name,
		X:          make([][]float64, len(idx)),
		Y:          make([]int, len(idx)),
		NumClasses: d.NumClasses,
	}
	withSubjects := len(d.Subjects) == len(d.Y)
	if withSubjects {
		out.Subjects = make([]int, len(idx))
	}
	for i, id := range idx {
		out.X[i] = d.X[id]
		out.Y[i] = d.Y[id]
		if withSubjects {
			out.Subjects[i] = d.Subjects[id]
		}
	}
	return out
}

// Shuffle permutes the dataset in place using rng.
func (d *Dataset) Shuffle(rng *rand.Rand) {
	withSubjects := len(d.Subjects) == len(d.Y)
	rng.Shuffle(len(d.Y), func(i, j int) {
		d.X[i], d.X[j] = d.X[j], d.X[i]
		d.Y[i], d.Y[j] = d.Y[j], d.Y[i]
		if withSubjects {
			d.Subjects[i], d.Subjects[j] = d.Subjects[j], d.Subjects[i]
		}
	})
}

// SplitBySubjects partitions samples into train/test by subject membership:
// samples whose subject is in testSubjects go to test. The paper's
// evaluation keeps test data "organized by subject units".
func SplitBySubjects(d *Dataset, testSubjects []int) (train, test *Dataset, err error) {
	if len(d.Subjects) != len(d.Y) {
		return nil, nil, fmt.Errorf("dataset %q: no subject annotations", d.Name)
	}
	isTest := map[int]bool{}
	for _, s := range testSubjects {
		isTest[s] = true
	}
	var trainIdx, testIdx []int
	for i, s := range d.Subjects {
		if isTest[s] {
			testIdx = append(testIdx, i)
		} else {
			trainIdx = append(trainIdx, i)
		}
	}
	if len(trainIdx) == 0 || len(testIdx) == 0 {
		return nil, nil, fmt.Errorf("dataset %q: subject split produced empty side (train=%d test=%d)",
			d.Name, len(trainIdx), len(testIdx))
	}
	return d.Subset(trainIdx), d.Subset(testIdx), nil
}

// Imbalance implements the paper's Eq. 8 overfitting protocol: samples of
// the target class are all kept, while every other class keeps only a
// (1-r) fraction of its samples, subsampled with rng. r = 0 leaves the
// dataset unchanged; larger r means stronger imbalance. r must lie in
// [0, 1).
func Imbalance(d *Dataset, targetClass int, r float64, rng *rand.Rand) (*Dataset, error) {
	if r < 0 || r >= 1 {
		return nil, fmt.Errorf("dataset: imbalance ratio %v outside [0,1)", r)
	}
	if targetClass < 0 || targetClass >= d.NumClasses {
		return nil, fmt.Errorf("dataset: target class %d outside [0,%d)", targetClass, d.NumClasses)
	}
	byClass := make([][]int, d.NumClasses)
	for i, y := range d.Y {
		byClass[y] = append(byClass[y], i)
	}
	var keep []int
	for c, idx := range byClass {
		if c == targetClass {
			keep = append(keep, idx...)
			continue
		}
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		n := int(float64(len(idx))*(1-r) + 0.5)
		if n < 1 && len(idx) > 0 {
			n = 1 // keep the class represented
		}
		keep = append(keep, idx[:n]...)
	}
	out := d.Subset(keep)
	out.Shuffle(rng)
	return out, nil
}

// AddLabelNoise flips the label of a frac fraction of samples to a
// different uniformly random class, in place. It returns the number of
// flipped labels.
func AddLabelNoise(d *Dataset, frac float64, rng *rand.Rand) (int, error) {
	if frac < 0 || frac > 1 {
		return 0, fmt.Errorf("dataset: noise fraction %v outside [0,1]", frac)
	}
	if d.NumClasses < 2 {
		return 0, fmt.Errorf("dataset: need >= 2 classes for label noise")
	}
	flipped := 0
	for i := range d.Y {
		if rng.Float64() < frac {
			ny := rng.Intn(d.NumClasses - 1)
			if ny >= d.Y[i] {
				ny++
			}
			d.Y[i] = ny
			flipped++
		}
	}
	return flipped, nil
}
