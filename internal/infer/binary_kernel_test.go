package infer

import (
	"math/rand"
	"testing"

	"boosthd/internal/boosthd"
	"boosthd/internal/faults"
	"boosthd/internal/hdc"
)

// referencePredictBits is the pre-blocked word-at-a-time scoring loop,
// kept as the oracle the packed class-major kernels must match bit for
// bit: per class, XOR/AND/popcount over the sign and mask words, the
// same similarity formula, the same aggregation and tie-breaking.
func referencePredictBits(bm *BinaryModel, qz *quantization, q []*hdc.BitVector, agg, scores []float64) int {
	classes := bm.model.Cfg.Classes
	for c := 0; c < classes; c++ {
		agg[c] = 0
	}
	score := bm.model.Cfg.Aggregation == boosthd.Score
	for i, ones := range qz.maskOnes {
		if bm.model.Alphas[i] == 0 {
			continue
		}
		qi := q[i]
		healthy := bm.model.DimMask(i)
		for c := range ones {
			sign, mask := qz.words(i, c)
			if healthy == nil {
				dis := 0
				for w, qw := range qi.Words {
					dis += popcount((qw ^ sign[w]) & mask[w])
				}
				scores[c] = 1 - 2*float64(dis)/ones[c]
				continue
			}
			scores[c] = maskedPlaneScore(qi.Words, sign, mask, healthy)
		}
		if score {
			for c := 0; c < classes; c++ {
				agg[c] += bm.model.Alphas[i] * scores[c]
			}
		} else {
			vote := 0
			for c := 1; c < classes; c++ {
				if scores[c] > scores[vote] {
					vote = c
				}
			}
			agg[vote] += bm.model.Alphas[i]
		}
	}
	best := 0
	for c := 1; c < classes; c++ {
		if agg[c] > agg[best] {
			best = c
		}
	}
	return best
}

// encodeQueries encodes every test row to per-segment sign bits.
func encodeQueries(t *testing.T, bm *BinaryModel, X [][]float64) [][]*hdc.BitVector {
	t.Helper()
	qs := make([][]*hdc.BitVector, len(X))
	for i := range X {
		qs[i] = bm.NewQueryBits()
	}
	if err := bm.model.EncodeSegmentBitsBatch(X, qs); err != nil {
		t.Fatal(err)
	}
	return qs
}

// assertKernelsMatchReference runs every row through the reference loop,
// the single-row packed kernel, and the 4-row blocked kernel, demanding
// identical labels and identical aggregate bits.
func assertKernelsMatchReference(t *testing.T, what string, bm *BinaryModel, X [][]float64) {
	t.Helper()
	qz := bm.snap.Load()
	qs := encodeQueries(t, bm, X)
	classes := bm.model.Cfg.Classes
	agg := make([]float64, classes)
	scores := make([]float64, classes)
	refAgg := make([]float64, classes)
	refScores := make([]float64, classes)
	agg4 := make([][]float64, 4)
	scores4 := make([][]float64, 4)
	for r := range agg4 {
		agg4[r] = make([]float64, classes)
		scores4[r] = make([]float64, classes)
	}
	want := make([]int, len(X))
	for i := range qs {
		want[i] = referencePredictBits(bm, qz, qs[i], refAgg, refScores)
		got := bm.predictBits(qz, qs[i], agg, scores)
		if got != want[i] {
			t.Fatalf("%s: row %d: packed kernel %d != reference %d", what, i, got, want[i])
		}
		for c := range agg {
			if agg[c] != refAgg[c] {
				t.Fatalf("%s: row %d class %d: packed aggregate %v != reference %v", what, i, c, agg[c], refAgg[c])
			}
		}
	}
	out4 := make([]int, 4)
	for i := 0; i+4 <= len(qs); i += 4 {
		bm.predictBits4(qz, qs[i], qs[i+1], qs[i+2], qs[i+3], agg4, scores4, out4)
		for r := 0; r < 4; r++ {
			if out4[r] != want[i+r] {
				t.Fatalf("%s: row %d: blocked kernel %d != reference %d", what, i+r, out4[r], want[i+r])
			}
		}
	}
	// The public batch path (which mixes the 4-row kernel with the scalar
	// tail) must agree too.
	got, err := bm.PredictBatch(X)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: row %d: PredictBatch %d != reference %d", what, i, got[i], want[i])
		}
	}
}

// TestBlockedKernelMatchesWordLoop pins the tentpole's scoring contract:
// the packed class-major kernels are bit-identical to the original
// word-at-a-time loop — on clean planes, under both aggregation rules,
// with zero-alpha learners, on randomly corrupted planes with stale
// popcounts, and on adversarially re-thresholded masks.
func TestBlockedKernelMatchesWordLoop(t *testing.T) {
	m, X, _ := fixture(t, 512, 4)
	bm, err := Quantize(m)
	if err != nil {
		t.Fatal(err)
	}
	assertKernelsMatchReference(t, "clean/score", bm, X)

	// Vote aggregation exercises the other accumulation rule.
	mv := m.Clone()
	mv.Cfg.Aggregation = boosthd.Vote
	bmv, err := Quantize(mv)
	if err != nil {
		t.Fatal(err)
	}
	assertKernelsMatchReference(t, "clean/vote", bmv, X)

	// A quarantined (zero-alpha) learner must be skipped identically.
	mz := m.Clone()
	mz.Alphas[2] = 0
	bmz, err := Quantize(mz)
	if err != nil {
		t.Fatal(err)
	}
	assertKernelsMatchReference(t, "zero-alpha", bmz, X)

	// Silent word corruption with deliberately stale popcounts.
	inj, err := faults.NewInjector(0.02, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	if flips := bm.InjectWordFaults(inj); flips == 0 {
		t.Fatal("injector flipped nothing")
	}
	assertKernelsMatchReference(t, "corrupted", bm, X)

	// Adversarial masks: zero out whole mask words (dead regions), set
	// others to all-ones (mask wider than the stored popcount claims).
	bm.ApplyWordRepair(false, func(learner, class int, sign, mask []uint64) {
		if learner == 1 {
			for w := range mask {
				if w%3 == 0 {
					mask[w] = 0
				}
				if w%7 == 1 {
					mask[w] = ^uint64(0)
				}
			}
		}
	})
	assertKernelsMatchReference(t, "adversarial-mask", bm, X)
}

// TestBlockedKernelMatchesWordLoopQuarantined covers the dimension-
// quarantine path: per-learner healthy masks (random, word-aligned holes,
// an untouched learner, and a fully masked learner) must renormalize
// identically through the packed kernels and the reference loop.
func TestBlockedKernelMatchesWordLoopQuarantined(t *testing.T) {
	m, X, _ := fixture(t, 512, 4)
	bm, err := Quantize(m)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	healthy := make([][]uint64, 4)
	for i := range healthy {
		words := (m.Learners[i].Dim + 63) / 64
		hm := make([]uint64, words)
		switch i {
		case 0:
			hm = nil // untouched learner: full trust
		case 1:
			for w := range hm {
				hm[w] = rng.Uint64() // random dimension holes
			}
		case 2:
			for w := range hm {
				if w%2 == 0 {
					hm[w] = ^uint64(0) // word-aligned quarantine
				}
			}
		case 3:
			// fully quarantined: every class scores the zero-norm 0
		}
		healthy[i] = hm
	}
	view, err := m.MaskedView(make([]bool, 4), healthy)
	if err != nil {
		t.Fatal(err)
	}
	assertKernelsMatchReference(t, "dim-quarantine", bm.overlay(view, nil), X)
}
