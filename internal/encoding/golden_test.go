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
// "<projection>/<kind>/<in>x<out>", as two FNV-64a digests over 37 rows.
// float covers the batch and the single-row float encodings; sign covers
// the packed sign bits of a full range and an unaligned sub-range, batch
// and scalar. The halves are separate so a change to the sign-bit kernel
// alone can show that every float encoding stayed as it was. A kernel
// change must leave every digest unchanged. seeded/*/7x130 has a single
// lookup group, so its float digest also pins the plain index-order dot.
var goldenDigests = map[string]struct{ float, sign uint64 }{
	"stored/nonlinear/36x1000": {float: 0x6789d6a4e78a7cf1, sign: 0xa2e7bb6559563741},
	"stored/nonlinear/7x130":   {float: 0x1345687dad701745, sign: 0xeefb365e31e9cd99},
	"stored/nonlinear/64x512":  {float: 0x76aeb74c3807f161, sign: 0x1f029f88f0104e41},
	"stored/nonlinear/100x333": {float: 0x3035383e495b12c5, sign: 0x604c9459ff5fbed5},
	"stored/rff/36x1000":       {float: 0x841ffc9ecea62d69, sign: 0x80ca1a7712abc2f9},
	"stored/rff/7x130":         {float: 0x486c55c70764bb61, sign: 0x39a591c7738e8829},
	"stored/rff/64x512":        {float: 0xf262f84894695b25, sign: 0x86dae9a096afbead},
	"stored/rff/100x333":       {float: 0x9737312303d8c1a9, sign: 0xf7466bb6eab8cbed},
	"stored/linear/36x1000":    {float: 0x9a2554e9722c83d5, sign: 0x4987d03707f0d835},
	"stored/linear/7x130":      {float: 0x1e620377b86ab7e5, sign: 0xf75ec6820881d5c5},
	"stored/linear/64x512":     {float: 0xe20610b094900985, sign: 0xa74a6c2daea3fce5},
	"stored/linear/100x333":    {float: 0xd5ab1211e613ac3d, sign: 0x2305c4040e8a0df9},
	"seeded/nonlinear/36x1000": {float: 0xb81d6bdc6e8d6851, sign: 0x93ae719bce029b2d},
	"seeded/nonlinear/7x130":   {float: 0xdd469c8bd59c3a69, sign: 0x37f5c4908fd9c331},
	"seeded/nonlinear/64x512":  {float: 0x31acb487ff9d7f9d, sign: 0x4161a003352e6a75},
	"seeded/nonlinear/100x333": {float: 0x9a6356bc04d46705, sign: 0xea0471d4602e7875},
	"seeded/rff/36x1000":       {float: 0x833ec40664b2ca6d, sign: 0x505542c3b1aade01},
	"seeded/rff/7x130":         {float: 0x213ded5d9ba903cd, sign: 0x008cb0b9137feb49},
	"seeded/rff/64x512":        {float: 0x0578c8fd6914f80d, sign: 0x1af08be58b22b165},
	"seeded/rff/100x333":       {float: 0xad82ac9ea3519879, sign: 0x03426909e23924c1},
	"seeded/linear/36x1000":    {float: 0xd56ad21e784de465, sign: 0x937e1899998342bd},
	"seeded/linear/7x130":      {float: 0xb500c1093c1ffd55, sign: 0x9579186517581809},
	"seeded/linear/64x512":     {float: 0x5a7daab1c657733d, sign: 0x2f6aa73ad592cfcd},
	"seeded/linear/100x333":    {float: 0x05054583d9423379, sign: 0xd5f258ddfba28e1d},
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
// float results and the sign bits into one digest each.
func goldenDigest(t *testing.T, e *Encoder) (float, sign uint64) {
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
	float = h.Sum64()

	h.Reset()
	for _, r := range [][2]int{{0, e.OutDim}, {35, e.OutDim - 9}} {
		lo, hi := r[0], r[1]
		batch := make([]*hdc.BitVector, len(xs))
		for i := range batch {
			batch[i] = newBits(hi - lo)
		}
		if err := e.EncodeBitsRangeBatch(xs, lo, hi, batch); err != nil {
			t.Fatal(err)
		}
		for _, v := range batch {
			hashWords(h, v)
		}
		for _, x := range xs {
			v := newBits(hi - lo)
			if err := e.EncodeBitsRange(x, lo, hi, v); err != nil {
				t.Fatal(err)
			}
			hashWords(h, v)
		}
	}
	return float, h.Sum64()
}

// TestGoldenEncodingDigests pins the float encodings and sign bits of
// both projection modes, for every kind, bit for bit, each half apart. The geometries
// cover partial sign words, partial dimension tiles and a row count that
// leaves a remainder after the four-row blocks.
func TestGoldenEncodingDigests(t *testing.T) {
	for _, proj := range []Projection{ProjStored, ProjSeeded} {
		for _, kind := range []Kind{Nonlinear, RFF, Linear} {
			for _, g := range []struct{ in, out int }{{36, 1000}, {7, 130}, {64, 512}, {100, 333}} {
				key := fmt.Sprintf("%v/%v/%dx%d", proj, kind, g.in, g.out)
				float, sign := goldenDigest(t, goldenEncoder(t, proj, g.in, g.out, kind))
				want := goldenDigests[key]
				if float != want.float {
					t.Errorf("%s: float digest %#016x, want %#016x", key, float, want.float)
				}
				if sign != want.sign {
					t.Errorf("%s: sign digest %#016x, want %#016x", key, sign, want.sign)
				}
			}
		}
	}
}
