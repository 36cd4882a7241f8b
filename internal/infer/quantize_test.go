package infer

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"boosthd/internal/boosthd"
	"boosthd/internal/faults"
	"boosthd/internal/hdc"
)

// goldenQuantDigests pins the packed ternary planes Quantize builds: an
// FNV-64a digest over every learner's and class's sign words, mask words
// and cached mask popcount. "trained" is the plain fixture model;
// "adversarial" is the same model with class memory rewritten to hold
// the values fault drills and degenerate training leave behind (exact
// ties across the mask threshold, zeros, ±Inf, NaN, constant vectors).
// A change to the thresholding must leave both digests unchanged.
var goldenQuantDigests = map[string]uint64{
	"trained":     0x04579ec9cef9971b,
	"adversarial": 0x461bc336a4e87c1a,
}

// quantDigest folds a binary model's packed planes into one digest.
func quantDigest(bm *BinaryModel) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(w uint64) {
		binary.LittleEndian.PutUint64(b[:], w)
		h.Write(b[:])
	}
	qz := bm.snap.Load()
	for i, l := range bm.model.Learners {
		put(uint64(l.Dim))
		for c, ones := range qz.maskOnes[i] {
			sign, mask := qz.words(i, c)
			for _, w := range sign {
				put(w)
			}
			for _, w := range mask {
				put(w)
			}
			put(math.Float64bits(ones))
		}
	}
	return h.Sum64()
}

// adversarialMemory rewrites m's class memory in place so each learner
// exercises a different degenerate thresholding case.
func adversarialMemory(m *boosthd.Model) {
	for i, l := range m.Learners {
		l.MutateClass(func(class []hdc.Vector) {
			for c, cv := range class {
				for j := range cv {
					switch (i + c) % 4 {
					case 0: // magnitude ties straddling the threshold, signed
						cv[j] = float64(j%4) - 1.5
					case 1: // zeros, infinities and NaN among trained values
						switch j % 9 {
						case 0:
							cv[j] = 0
						case 3:
							cv[j] = math.Inf(1)
						case 5:
							cv[j] = math.Inf(-1)
						case 7:
							cv[j] = math.NaN()
						}
					case 2: // constant magnitude, alternating sign
						cv[j] = 0.5 * float64(1-2*(j%2))
					case 3: // NaN on more than the dropped quarter
						if j%3 != 0 {
							cv[j] = math.NaN()
						}
					}
				}
			}
		})
	}
}

// TestQuantizeGoldenDigest pins Quantize's output bit for bit.
func TestQuantizeGoldenDigest(t *testing.T) {
	for _, name := range []string{"trained", "adversarial"} {
		m, _, _ := fixture(t, 1003, 4)
		if name == "adversarial" {
			adversarialMemory(m)
		}
		bm, err := Quantize(m)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := quantDigest(bm), goldenQuantDigests[name]; got != want {
			t.Errorf("%s: quantized planes digest %#016x, want %#016x", name, got, want)
		}
	}
}

// referencePlanes is the sort-based thresholding quantizeLearner
// replaced: sort a copy of the magnitudes with sort.Float64s, cut at
// sorted[len-keep], set the mask above the cut, then fill the quota
// with ties in index order.
func referencePlanes(cv []float64) (sign, mask []uint64, ones int) {
	abs := make([]float64, len(cv))
	for j, v := range cv {
		abs[j] = math.Abs(v)
	}
	keep := len(abs) - int(QuantizeDrop*float64(len(abs)))
	sorted := append([]float64(nil), abs...)
	sort.Float64s(sorted)
	thr := sorted[len(sorted)-keep]
	sign = signBits(cv).Words
	m := newBits(len(cv))
	for j, a := range abs {
		if a > thr {
			m.Words[j/64] |= 1 << (j % 64)
			ones++
		}
	}
	for j, a := range abs {
		if ones == keep {
			break
		}
		if a == thr {
			m.Words[j/64] |= 1 << (j % 64)
			ones++
		}
	}
	return sign, m.Words, ones
}

// newBits returns an all-zero packed hypervector of dimension n.
func newBits(n int) *hdc.BitVector {
	return &hdc.BitVector{N: n, Words: make([]uint64, (n+63)/64)}
}

// signBits packs the signs of v: bit j is set iff v[j] >= 0.
func signBits(v []float64) *hdc.BitVector {
	b := newBits(len(v))
	for j, x := range v {
		if x >= 0 {
			b.Words[j/64] |= 1 << (j % 64)
		}
	}
	return b
}

// bitAt reports bit j of b.
func bitAt(b *hdc.BitVector, j int) bool {
	return b.Words[j/64]>>(j%64)&1 != 0
}

// sameThreshold compares thresholds bit for bit, with any NaN equal to
// any other (no comparison can tell NaN payloads apart).
func sameThreshold(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// adversarialVectors returns vectors of length n built to break a
// selection: constant, few-valued with ties straddling every rank,
// sorted either way, organ-pipe, and draws from a palette of zeros,
// infinities, NaN, subnormals and extremes.
func adversarialVectors(rng *rand.Rand, n int) [][]float64 {
	palette := []float64{0, math.Copysign(0, -1), 1, -1, 0.5, -2, math.Inf(1), math.Inf(-1),
		math.NaN(), 5e-324, -math.MaxFloat64, 1e-300}
	var out [][]float64
	add := func(f func(j int) float64) {
		v := make([]float64, n)
		for j := range v {
			v[j] = f(j)
		}
		out = append(out, v)
	}
	add(func(int) float64 { return 0.75 })
	add(func(j int) float64 { return 0.75 * float64(1-2*(j%2)) })
	add(func(int) float64 { return 0 })
	add(func(int) float64 { return math.NaN() })
	add(func(int) float64 { return math.Inf(-1) })
	add(func(j int) float64 { return float64(j) })
	add(func(j int) float64 { return -float64(n - j) })
	add(func(j int) float64 { return float64(min(j, n-1-j)) })
	add(func(j int) float64 { return float64(j%3) - 1 })
	add(func(j int) float64 { return float64(j % 4) })
	for _, k := range []int{1, 2, 3, 5, len(palette)} {
		for r := 0; r < 4; r++ {
			add(func(int) float64 { return palette[rng.Intn(k)] })
			add(func(int) float64 {
				if rng.Intn(4) == 0 {
					return palette[rng.Intn(k)]
				}
				return rng.NormFloat64()
			})
		}
	}
	return out
}

// TestMaskThresholdMatchesSort is the property the selection rests on:
// for adversarial vectors of lengths 1-9, 13, 64 and 1000, the selected
// threshold is the sort.Float64s reference bit for bit at every mask
// size up to length 13 (keep == len included) and, beyond, at keep 1,
// len, the quantization's keep and a random one; and the planes
// quantizeLearner builds are the reference planes.
func TestMaskThresholdMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	lengths := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 64, 1000}
	for _, n := range lengths {
		scratch := make([]uint64, n)
		for vi, cv := range adversarialVectors(rng, n) {
			abs := make([]float64, n)
			for j, v := range cv {
				abs[j] = math.Abs(v)
			}
			sorted := append([]float64(nil), abs...)
			sort.Float64s(sorted)
			keeps := []int{1, n, n - int(QuantizeDrop*float64(n)), 1 + rng.Intn(n)}
			if n <= 13 {
				keeps = keeps[:0]
				for k := 1; k <= n; k++ {
					keeps = append(keeps, k)
				}
			}
			for _, keep := range keeps {
				if got, want := maskThreshold(cv, keep, scratch), sorted[n-keep]; !sameThreshold(got, want) {
					t.Fatalf("len %d vector %d keep %d: threshold %v, sort reference %v", n, vi, keep, got, want)
				}
			}

			qz := &quantization{planes: make([][]uint64, 1), maskOnes: make([][]float64, 1)}
			qz.quantizeLearner(0, []hdc.Vector{cv})
			sign, mask, ones := referencePlanes(cv)
			gotSign, gotMask := qz.words(0, 0)
			if !slices.Equal(gotSign, sign) || !slices.Equal(gotMask, mask) ||
				qz.maskOnes[0][0] != float64(ones) {
				t.Fatalf("len %d vector %d: planes differ from the sort reference", n, vi)
			}
			if !slices.Equal(qz.planes[0], append(append([]uint64(nil), sign...), mask...)) {
				t.Fatalf("len %d vector %d: packed block does not hold the sign then mask words", n, vi)
			}
		}
	}
}

// TestSelectBitsEveryRank drives the radix select through every rank of
// the magnitude bits of adversarial vectors, from one word to lengths
// that take several rounds.
func TestSelectBitsEveryRank(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, n := range []int{1, 2, 7, 40, 257} {
		for vi, v := range adversarialVectors(rng, n) {
			var keys []uint64
			for _, x := range v {
				if !math.IsNaN(x) {
					keys = append(keys, math.Float64bits(math.Abs(x)))
				}
			}
			sorted := slices.Clone(keys)
			slices.Sort(sorted)
			work := make([]uint64, len(keys))
			for k := range keys {
				copy(work, keys)
				if got := selectBits(work, k); got != sorted[k] {
					t.Fatalf("len %d vector %d rank %d: got %#x, want %#x", n, vi, k, got, sorted[k])
				}
			}
		}
	}
}

// goldenWordFaultDigests pins the write paths over the packed planes:
// InjectWordFaults under a seeded injector ("inject"), then
// ApplyWordRepair over a deterministic transform that keeps the stored
// popcounts ("repair") and one that recounts them ("recount"). Each
// digest folds the flip count, every learner's and class's sign and
// mask words and every stored mask popcount. A change to how snapshots
// hold or copy their planes must leave all three unchanged.
var goldenWordFaultDigests = map[string]uint64{
	"inject":  0xf76744c61bec375e,
	"repair":  0x515ef546dc4206b7,
	"recount": 0x590998a926624135,
}

// planeStateDigest folds a binary model's current planes, its stored
// mask popcounts and flips into one digest.
func planeStateDigest(bm *BinaryModel, flips int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(w uint64) {
		binary.LittleEndian.PutUint64(b[:], w)
		h.Write(b[:])
	}
	put(uint64(flips))
	bm.ReadPlanes(func(learner, class int, _ uint64, sign, mask []uint64) {
		put(uint64(learner))
		put(uint64(class))
		for _, w := range sign {
			put(w)
		}
		for _, w := range mask {
			put(w)
		}
	})
	for _, ones := range bm.snap.Load().maskOnes {
		for _, n := range ones {
			put(math.Float64bits(n))
		}
	}
	return h.Sum64()
}

// wordTransform rewrites every sign and mask word as a function of its
// learner, class and word index: signs are XORed with a mixed pattern,
// masks rotated and thinned, padding bits included.
func wordTransform(learner, class int, sign, mask []uint64) {
	for w := range sign {
		k := uint64(learner*131+class*17+w) + 1
		sign[w] ^= k * 0x9e3779b97f4a7c15
		mask[w] = bits.RotateLeft64(mask[w], learner+class+1) &^ (k * 0xbf58476d1ce4e5b9 >> 7)
	}
}

// TestWordFaultGoldenDigest pins InjectWordFaults and ApplyWordRepair bit
// for bit on segments whose widths leave padding bits in the last word.
func TestWordFaultGoldenDigest(t *testing.T) {
	m, _, _ := fixture(t, 1003, 4)
	bm, err := Quantize(m)
	if err != nil {
		t.Fatal(err)
	}
	check := func(stage string, flips int) {
		t.Helper()
		if got, want := planeStateDigest(bm, flips), goldenWordFaultDigests[stage]; got != want {
			t.Errorf("%s: plane state digest %#016x, want %#016x", stage, got, want)
		}
	}
	inj, err := faults.NewInjector(0.01, rand.New(rand.NewSource(41)))
	if err != nil {
		t.Fatal(err)
	}
	flips := bm.InjectWordFaults(inj)
	if flips == 0 {
		t.Fatal("injector flipped nothing")
	}
	check("inject", flips)
	bm.ApplyWordRepair(false, wordTransform)
	check("repair", flips)
	bm.ApplyWordRepair(true, wordTransform)
	check("recount", flips)
}

// TestWordFaultsSkipPadding: a fault drill flips only dimension bits. On
// segments of 80 dimensions (48 padding bits in each plane's last
// word), the returned count equals the number of sign and mask bits
// within the segments that differ from the pristine planes, every
// padding bit stays clear, and a snapshot saved after the drill loads.
func TestWordFaultsSkipPadding(t *testing.T) {
	m, _, _ := fixture(t, 320, 4)
	bm, err := Quantize(m)
	if err != nil {
		t.Fatal(err)
	}
	before := bm.snap.Load()
	inj, err := faults.NewInjector(1e-2, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	flips := bm.InjectWordFaults(inj)
	if flips == 0 {
		t.Fatal("injector flipped nothing")
	}
	diff := 0
	bm.ReadPlanes(func(learner, class int, _ uint64, sign, mask []uint64) {
		dim := m.Learners[learner].Dim
		was, wasMask := before.words(learner, class)
		for k := 0; k < dim; k++ {
			w, b := k/64, uint(k%64)
			diff += int((sign[w]^was[w])>>b&1 + (mask[w]^wasMask[w])>>b&1)
		}
		for _, p := range [2][]uint64{sign, mask} {
			if p[len(p)-1]>>uint(dim%64) != 0 {
				t.Fatalf("learner %d class %d: a padding bit is set after the drill", learner, class)
			}
		}
	})
	if diff != flips {
		t.Fatalf("drill reported %d flips, %d dimension bits differ", flips, diff)
	}
	var buf bytes.Buffer
	if err := bm.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBinary(&buf); err != nil {
		t.Fatalf("snapshot saved after a drill does not load: %v", err)
	}
}
