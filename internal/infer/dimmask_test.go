package infer

import (
	"testing"

	"boosthd/internal/hdc"
)

// dimMaskFixture builds per-learner healthy masks that exclude a few
// word-aligned dimension ranges: learner 0 loses word 1, learner 2
// loses words 0 and 3. Learners are 512 dims (2048/4), i.e. 8 words.
func dimMaskFixture(learners int, words int) [][]uint64 {
	healthy := make([][]uint64, learners)
	all := func() []uint64 {
		h := make([]uint64, words)
		for w := range h {
			h[w] = ^uint64(0)
		}
		return h
	}
	healthy[0] = all()
	healthy[0][1] = 0
	healthy[2] = all()
	healthy[2][0] = 0
	healthy[2][3] = 0
	return healthy
}

// TestDimMaskEquivalenceFloat: a dimension-masked float engine must
// score bit-for-bit like a clean model whose class vectors were zeroed
// at the masked dimensions (with norm caches refreshed) — the
// contract that makes dimension quarantine a pure exclusion of the
// untrusted words, not an approximation.
func TestDimMaskEquivalenceFloat(t *testing.T) {
	m, X, _ := fixture(t, 2048, 4)
	healthy := dimMaskFixture(len(m.Learners), 8)
	noMask := make([]bool, len(m.Learners))

	// Reference: clone with the masked class components literally
	// zeroed through the locked mutation path.
	ref := m.Clone()
	for i, hm := range healthy {
		if hm == nil {
			continue
		}
		ref.Learners[i].MutateClass(func(class []hdc.Vector) {
			for _, cv := range class {
				for k := range cv {
					if hm[k/64]&(1<<uint(k%64)) == 0 {
						cv[k] = 0
					}
				}
			}
		})
	}
	want, err := NewEngine(ref).PredictBatch(X)
	if err != nil {
		t.Fatal(err)
	}

	masked, err := RemaskDims(NewEngine(m), m, noMask, healthy)
	if err != nil {
		t.Fatal(err)
	}
	got, err := masked.PredictBatch(X)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("float dim-masked prediction %d: %d != %d", i, got[i], want[i])
		}
	}
	// Single-row path too (different scratch/pin lifecycle).
	for i := 0; i < 10; i++ {
		g, err := masked.Predict(X[i])
		if err != nil {
			t.Fatal(err)
		}
		if g != want[i] {
			t.Fatalf("float dim-masked single prediction %d: %d != %d", i, g, want[i])
		}
	}
}

// TestDimMaskEquivalenceBinary: a dimension-masked binary engine must
// score bit-for-bit like a clean binary model whose confidence masks
// had the untrusted words dropped at quantize time, popcounts
// recomputed — the packed-plane form of the same contract.
func TestDimMaskEquivalenceBinary(t *testing.T) {
	m, X, _ := fixture(t, 2048, 4)
	healthy := dimMaskFixture(len(m.Learners), 8)
	noMask := make([]bool, len(m.Learners))

	refEng, err := NewBinaryEngine(m.Clone())
	if err != nil {
		t.Fatal(err)
	}
	// "Quantized with those words masked out": clear the confidence-mask
	// words at the untrusted dimensions and recount the stored popcounts.
	refEng.Binary().ApplyWordRepair(true, func(learner, class int, sign, mask []uint64) {
		hm := healthy[learner]
		if hm == nil {
			return
		}
		for w := range mask {
			mask[w] &= hm[w]
		}
	})
	want, err := refEng.PredictBatch(X)
	if err != nil {
		t.Fatal(err)
	}

	binEng, err := NewBinaryEngine(m)
	if err != nil {
		t.Fatal(err)
	}
	masked, err := RemaskDims(binEng, m, noMask, healthy)
	if err != nil {
		t.Fatal(err)
	}
	got, err := masked.PredictBatch(X)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("binary dim-masked prediction %d: %d != %d", i, got[i], want[i])
		}
	}
}

// TestDimMaskComposesWithAlphaMask: the two quarantine tiers compose —
// one learner fully alpha-masked, another dimension-masked — and the
// fully masked learner's memory is never consulted (all-NaN poison).
func TestDimMaskComposesWithAlphaMask(t *testing.T) {
	m, X, _ := fixture(t, 2048, 4)
	healthy := dimMaskFixture(len(m.Learners), 8)
	masked := []bool{false, true, false, false}

	ref := m.Clone()
	for i, hm := range healthy {
		if hm == nil {
			continue
		}
		ref.Learners[i].MutateClass(func(class []hdc.Vector) {
			for _, cv := range class {
				for k := range cv {
					if hm[k/64]&(1<<uint(k%64)) == 0 {
						cv[k] = 0
					}
				}
			}
		})
	}
	refView, err := ref.MaskedView(masked, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewEngine(refView).PredictBatch(X)
	if err != nil {
		t.Fatal(err)
	}

	m.Learners[1].MutateClass(func(class []hdc.Vector) {
		for _, cv := range class {
			for k := range cv {
				cv[k] = nan()
			}
		}
	})
	eng, err := RemaskDims(NewEngine(m), m, masked, healthy)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.PredictBatch(X)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("two-tier masked prediction %d: %d != %d", i, got[i], want[i])
		}
	}
}

func nan() float64 {
	z := 0.0
	return z / z
}

// TestRethresholdSurgical: a targeted Rethreshold(learners...) must
// rebuild exactly the listed learners' planes and leave every other
// learner's (corrupted) planes untouched.
func TestRethresholdSurgical(t *testing.T) {
	m, X, _ := fixture(t, 2048, 4)
	bm, err := Quantize(m)
	if err != nil {
		t.Fatal(err)
	}
	want, err := bm.PredictBatch(X)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt learner 1's and learner 3's sign planes directly.
	bm.ApplyWordRepair(false, func(learner, class int, sign, mask []uint64) {
		if learner == 1 || learner == 3 {
			sign[0] ^= ^uint64(0)
		}
	})
	if err := bm.Rethreshold(1); err != nil {
		t.Fatal(err)
	}
	// Learner 1 healed, learner 3 still corrupted.
	ref, err := Quantize(m.Clone())
	if err != nil {
		t.Fatal(err)
	}
	var ref1, ref3, cur1, cur3 []uint64
	ref.ReadPlanes(func(learner, class int, version uint64, sign, mask []uint64) {
		if class != 0 {
			return
		}
		if learner == 1 {
			ref1 = append([]uint64(nil), sign...)
		}
		if learner == 3 {
			ref3 = append([]uint64(nil), sign...)
		}
	})
	bm.ReadPlanes(func(learner, class int, version uint64, sign, mask []uint64) {
		if class != 0 {
			return
		}
		if learner == 1 {
			cur1 = append([]uint64(nil), sign...)
		}
		if learner == 3 {
			cur3 = append([]uint64(nil), sign...)
		}
	})
	for w := range ref1 {
		if cur1[w] != ref1[w] {
			t.Fatalf("learner 1 word %d not healed by surgical rethreshold", w)
		}
	}
	if cur3[0] == ref3[0] {
		t.Fatal("learner 3 healed by a rethreshold that did not name it")
	}
	// Healing the remainder restores pristine predictions.
	if err := bm.Rethreshold(3); err != nil {
		t.Fatal(err)
	}
	got, err := bm.PredictBatch(X)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("post-surgical-rethreshold prediction %d: %d != %d", i, got[i], want[i])
		}
	}
}
