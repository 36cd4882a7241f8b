package encoding

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"boosthd/internal/hdc"
)

// goldenDigests pins every encoding the package produces, keyed
// "<projection>/<kind>/<in>x<out>". Each value is an FNV-64a digest over
// the float batch encodings, the single-row float encodings, and the
// packed sign bits of a full range and an unaligned sub-range, batch and
// scalar, of 37 rows. A kernel change must leave every digest unchanged.
// seeded/*/7x130 has a single lookup group, so its digest also pins the
// plain index-order dot.
var goldenDigests = map[string]uint64{
	"stored/nonlinear/36x1000": 0x756ef197276a46bd,
	"stored/nonlinear/7x130":   0xacccc7e559de5839,
	"stored/nonlinear/64x512":  0xb3e72473cf09139d,
	"stored/nonlinear/100x333": 0x379539f93b9cbbf5,
	"stored/rff/36x1000":       0xf1820fa9408eb42d,
	"stored/rff/7x130":         0x3ef4aba6fe6fb325,
	"stored/rff/64x512":        0xd86effe52b56f6ad,
	"stored/rff/100x333":       0xd2304172a51814b1,
	"stored/linear/36x1000":    0x488a4266b68f7ee5,
	"stored/linear/7x130":      0x6bc2f7164f47c685,
	"stored/linear/64x512":     0x6ea515f553dfa245,
	"stored/linear/100x333":    0xfad83a7b6b27f891,
	"seeded/nonlinear/36x1000": 0xbd48c9016e92c919,
	"seeded/nonlinear/7x130":   0xabc050400e6c65e5,
	"seeded/nonlinear/64x512":  0x8eed478f5621168d,
	"seeded/nonlinear/100x333": 0xe3639dc1ec54bdd5,
	"seeded/rff/36x1000":       0xf155d0ac573b5009,
	"seeded/rff/7x130":         0x0fc2bca92b1653d1,
	"seeded/rff/64x512":        0x103812c2c0ed770d,
	"seeded/rff/100x333":       0x9237fac47959f8a5,
	"seeded/linear/36x1000":    0x3b9f072d212bdbfd,
	"seeded/linear/7x130":      0xaed90c7a680c3ff9,
	"seeded/linear/64x512":     0x8de909c794fc5005,
	"seeded/linear/100x333":    0xe77114968be1f251,
}

// goldenEncoder builds the encoder a golden case pins.
func goldenEncoder(t *testing.T, proj Projection, in, out int, kind Kind) *Encoder {
	t.Helper()
	e, err := New(in, out, kind, 42)
	if proj == ProjSeeded {
		e, err = NewSeeded(in, out, kind, 42)
	}
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func hashFloats(h hash.Hash64, xs []float64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
}

func hashWords(h hash.Hash64, v *hdc.BitVector) {
	var b [8]byte
	for _, w := range v.Words {
		binary.LittleEndian.PutUint64(b[:], w)
		h.Write(b[:])
	}
}

// goldenDigest encodes 37 rows through every entry point and folds the
// results into one digest.
func goldenDigest(t *testing.T, e *Encoder) uint64 {
	t.Helper()
	xs := seededTestRows(7, 37, e.InDim)
	h := fnv.New64a()

	flat := make([]float64, len(xs)*e.OutDim)
	if err := e.EncodeBatchInto(xs, flat, e.OutDim, 0); err != nil {
		t.Fatal(err)
	}
	hashFloats(h, flat)
	for _, x := range xs {
		v, err := e.Encode(x)
		if err != nil {
			t.Fatal(err)
		}
		hashFloats(h, v)
	}

	for _, r := range [][2]int{{0, e.OutDim}, {35, e.OutDim - 9}} {
		lo, hi := r[0], r[1]
		batch := make([]*hdc.BitVector, len(xs))
		for i := range batch {
			batch[i] = hdc.NewBitVector(hi - lo)
		}
		if err := e.EncodeBitsRangeBatch(xs, lo, hi, batch); err != nil {
			t.Fatal(err)
		}
		for _, v := range batch {
			hashWords(h, v)
		}
		for _, x := range xs {
			v := hdc.NewBitVector(hi - lo)
			if err := e.EncodeBitsRange(x, lo, hi, v); err != nil {
				t.Fatal(err)
			}
			hashWords(h, v)
		}
	}
	return h.Sum64()
}

// TestGoldenEncodingDigests pins the float encodings and sign bits of
// both projection modes, for every kind, bit for bit. The geometries
// cover partial sign words, partial dimension tiles and a row count that
// leaves a remainder after the four-row blocks.
func TestGoldenEncodingDigests(t *testing.T) {
	for _, proj := range []Projection{ProjStored, ProjSeeded} {
		for _, kind := range []Kind{Nonlinear, RFF, Linear} {
			for _, g := range []struct{ in, out int }{{36, 1000}, {7, 130}, {64, 512}, {100, 333}} {
				key := fmt.Sprintf("%v/%v/%dx%d", proj, kind, g.in, g.out)
				got := goldenDigest(t, goldenEncoder(t, proj, g.in, g.out, kind))
				if want := goldenDigests[key]; got != want {
					t.Errorf("%s: digest %#016x, want %#016x", key, got, want)
				}
			}
		}
	}
}
