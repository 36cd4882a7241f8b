package encoding

import (
	"math"
	"math/rand"
	"testing"

	"boosthd/internal/hdc"
)

func randRows(rng *rand.Rand, n, dim int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		row := make([]float64, dim)
		for j := range row {
			row[j] = rng.NormFloat64() * 2
		}
		out[i] = row
	}
	return out
}

// legacyEncode computes the original two-call activation
// cos(d+b)*sin(d) straight from the encoder's internals.
func legacyEncode(e *Encoder, x []float64) hdc.Vector {
	h := make(hdc.Vector, e.OutDim)
	b := e.plane.Load().b
	for j := 0; j < e.OutDim; j++ {
		row := e.w[j*e.InDim : (j+1)*e.InDim]
		var dot float64
		for k, xv := range x {
			dot += row[k] * xv
		}
		dot *= e.Gamma
		switch e.Kind {
		case Nonlinear:
			h[j] = math.Cos(dot+b[j]) * math.Sin(dot)
		case RFF:
			h[j] = math.Cos(dot + b[j])
		default:
			h[j] = dot
		}
	}
	return h
}

// TestNonlinearMatchesLegacyActivation pins the product-to-sum rewrite:
// 0.5*sin(2d+b) - 0.5*sin(b) must equal cos(d+b)*sin(d) to floating-point
// noise (the identity is exact in real arithmetic).
func TestNonlinearMatchesLegacyActivation(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, kind := range []Kind{Nonlinear, RFF, Linear} {
		e, err := New(9, 512, kind, 23)
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range randRows(rng, 8, 9) {
			got, err := e.Encode(x)
			if err != nil {
				t.Fatal(err)
			}
			want := legacyEncode(e, x)
			for j := range want {
				if math.Abs(got[j]-want[j]) > 1e-12 {
					t.Fatalf("kind %v comp %d: new %v vs legacy %v", kind, j, got[j], want[j])
				}
			}
		}
	}
}

// TestEncodeBatchIntoStrided checks the flat strided writer against the
// single-row path, across row counts straddling the register blocks, with
// a nonzero offset and surrounding guard regions left untouched.
func TestEncodeBatchIntoStrided(t *testing.T) {
	e, err := New(7, 130, Nonlinear, 5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(29))
	for _, n := range []int{1, 3, 4, 5, 32, 37} {
		xs := randRows(rng, n, 7)
		const offset = 3
		stride := offset + e.OutDim + 2
		out := make([]float64, n*stride)
		for i := range out {
			out[i] = -99
		}
		if err := e.EncodeBatchInto(xs, out, stride, offset); err != nil {
			t.Fatal(err)
		}
		for i, x := range xs {
			single, err := e.Encode(x)
			if err != nil {
				t.Fatal(err)
			}
			row := out[i*stride:]
			for p := 0; p < offset; p++ {
				if row[p] != -99 {
					t.Fatalf("n=%d row %d: guard before offset overwritten", n, i)
				}
			}
			for j := range single {
				if row[offset+j] != single[j] {
					t.Fatalf("n=%d row %d comp %d: strided %v != single %v", n, i, j, row[offset+j], single[j])
				}
			}
			for p := offset + e.OutDim; p < stride; p++ {
				if row[p] != -99 {
					t.Fatalf("n=%d row %d: guard after row overwritten", n, i)
				}
			}
		}
	}
	// Validation errors.
	xs := randRows(rng, 2, 7)
	if err := e.EncodeBatchInto(xs, make([]float64, 10), e.OutDim, 0); err == nil {
		t.Fatal("expected short-buffer error")
	}
	if err := e.EncodeBatchInto(xs, make([]float64, 2*e.OutDim), e.OutDim-1, 0); err == nil {
		t.Fatal("expected bad-stride error")
	}
	if err := e.EncodeBatchInto([][]float64{{1}}, make([]float64, e.OutDim), e.OutDim, 0); err == nil {
		t.Fatal("expected bad-row error")
	}
}

// TestEncodeIntoMatchesEncode checks the allocation-free single-row entry.
func TestEncodeIntoMatchesEncode(t *testing.T) {
	e, err := New(4, 96, Nonlinear, 31)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{0.4, -1.2, 0.05, 2.2}
	dst := make([]float64, 96)
	if err := e.EncodeInto(x, dst); err != nil {
		t.Fatal(err)
	}
	h, err := e.Encode(x)
	if err != nil {
		t.Fatal(err)
	}
	for j := range h {
		if h[j] != dst[j] {
			t.Fatalf("comp %d: EncodeInto %v != Encode %v", j, dst[j], h[j])
		}
	}
	if err := e.EncodeInto(x, make([]float64, 5)); err == nil {
		t.Fatal("expected dst-length error")
	}
}

// TestEncodeBitsMatchesFloatSigns checks the sign-only path against
// thresholding the float encoding, for every kind and an unaligned range.
func TestEncodeBitsMatchesFloatSigns(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, kind := range []Kind{Nonlinear, RFF, Linear} {
		e, err := New(6, 200, kind, 13)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := 35, 185 // straddles word boundaries, width 150
		for _, x := range randRows(rng, 6, 6) {
			h, err := e.Encode(x)
			if err != nil {
				t.Fatal(err)
			}
			bits := hdc.NewBitVector(hi - lo)
			if err := e.EncodeBitsRange(x, lo, hi, bits); err != nil {
				t.Fatal(err)
			}
			for j := lo; j < hi; j++ {
				want := h[j] >= 0
				if got := bits.Get(j - lo); got != want {
					t.Fatalf("kind %v comp %d: bit %v, float %v (h=%v)", kind, j, got, want, h[j])
				}
			}
		}
	}
}

// TestEncodeBitsRangeBatchMatchesPerRow checks the register-blocked batch
// bits kernel against the scalar path across block-boundary row counts.
func TestEncodeBitsRangeBatchMatchesPerRow(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	e, err := New(5, 150, Nonlinear, 19)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 3, 4, 5, 8, 9} {
		xs := randRows(rng, n, 5)
		dst := make([]*hdc.BitVector, n)
		for i := range dst {
			dst[i] = hdc.NewBitVector(150)
		}
		if err := e.EncodeBitsRangeBatch(xs, 0, 150, dst); err != nil {
			t.Fatal(err)
		}
		for i, x := range xs {
			want := hdc.NewBitVector(150)
			if err := e.EncodeBitsRange(x, 0, 150, want); err != nil {
				t.Fatal(err)
			}
			for w := range want.Words {
				if dst[i].Words[w] != want.Words[w] {
					t.Fatalf("n=%d row %d word %d: batch %x != scalar %x", n, i, w, dst[i].Words[w], want.Words[w])
				}
			}
		}
	}
}

// signBit is the sign bit signWords packs for one component with
// projection p and phase b: the reference the bit tests compare against.
func (e *Encoder) signBit(p, b float64) uint64 {
	switch e.Kind {
	case Nonlinear:
		return phaseSign(phaseFrac(p), phaseFrac(p+b))
	case RFF:
		return phaseSign(0, phaseFrac(p+b))
	default:
		return linearSign(p)
	}
}

// signByComparison is the comparison form of the component sign that the
// branch-free phaseSign and linearSign replace.
func signByComparison(kind Kind, p, b float64) bool {
	switch kind {
	case Nonlinear:
		fc := phaseFrac(p + b)
		return (phaseFrac(p) > 0.5) == (fc > 0.25 && fc < 0.75)
	case RFF:
		fc := phaseFrac(p + b)
		return !(fc > 0.25 && fc < 0.75)
	}
	return p >= 0
}

// onFraction walks x outward ulp by ulp from start and collects every
// value whose phase fraction under frac is exactly q.
func onFraction(start, q float64, frac func(float64) float64) []float64 {
	var out []float64
	up, down := start, start
	for i := 0; i < 256; i++ {
		for _, v := range []float64{up, down} {
			if frac(v) == q {
				out = append(out, v)
			}
		}
		up, down = math.Nextafter(up, math.Inf(1)), math.Nextafter(down, math.Inf(-1))
	}
	return out
}

// TestSignBitMatchesComparison pins the branch-free sign against the
// comparison form it replaced, for every kind: random projections over
// twelve decades and random phases, projections and phases that put a
// phase fraction exactly on a quadrant boundary, and the fraction grid
// around every boundary fed to phaseSign directly.
func TestSignBitMatchesComparison(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	type pb struct{ p, b float64 }
	var cases []pb
	for i := 0; i < 20000; i++ {
		cases = append(cases, pb{rng.NormFloat64() * math.Pow(10, float64(rng.Intn(12)-4)), rng.Float64() * 2 * math.Pi})
	}
	boundary := 0
	for k := -3; k <= 3; k++ {
		for _, q := range []float64{0, 0.25, 0.5, 0.75} {
			ps := onFraction((float64(k)+q)/invTwoPi, q, phaseFrac)
			b := rng.Float64() * 2 * math.Pi
			for _, p := range ps {
				cases = append(cases, pb{p, b}, pb{math.Nextafter(p, 1e300), b}, pb{math.Nextafter(p, -1e300), b})
				// A phase that lands p+b itself on the boundary.
				for _, b := range onFraction((float64(k+1)+q)/invTwoPi-p, q, func(b float64) float64 { return phaseFrac(p + b) }) {
					cases = append(cases, pb{p, b})
				}
			}
			boundary += len(ps)
		}
	}
	if boundary == 0 {
		t.Fatal("found no projection on a quadrant boundary")
	}
	t.Logf("%d cases, %d projections exactly on a quadrant boundary", len(cases), boundary)
	cases = append(cases, pb{0, 0}, pb{math.Copysign(0, -1), 1}, pb{5e-324, 2}, pb{-5e-324, 2}, pb{1e300, 3}, pb{-1e300, 3})
	for _, kind := range []Kind{Nonlinear, RFF, Linear} {
		e := &Encoder{Kind: kind}
		for _, c := range cases {
			if got, want := e.signBit(c.p, c.b) == 1, signByComparison(kind, c.p, c.b); got != want {
				t.Fatalf("kind=%v p=%v b=%v: branch-free sign %v, comparison %v", kind, c.p, c.b, got, want)
			}
		}
	}
	var grid []float64
	for _, q := range []float64{0, 0.25, 0.5, 0.75} {
		grid = append(grid, q, math.Nextafter(q, 1), math.Nextafter(q, -1))
	}
	grid = append(grid, 0.1, 0.4, 0.6, 0.9, math.Nextafter(1, 0))
	for _, f := range grid {
		for _, fc := range grid {
			want := (f > 0.5) == (fc > 0.25 && fc < 0.75)
			if got := phaseSign(f, fc) == 1; got != want {
				t.Fatalf("phaseSign(%v, %v) = %v, comparison %v", f, fc, got, want)
			}
		}
	}
}

// TestEncoderRejectsOverflowingFeatures: CheckFeatures bounds feature
// values at ±MaxFeature, and every encoder entry point refuses a row
// beyond it instead of encoding infinities into NaN.
func TestEncoderRejectsOverflowingFeatures(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e308, -1.0000001e150} {
		if CheckFeatures([]float64{0, v}) == nil {
			t.Fatalf("CheckFeatures accepted %v", v)
		}
	}
	if err := CheckFeatures([]float64{MaxFeature, -MaxFeature, 0}); err != nil {
		t.Fatalf("CheckFeatures rejected the bound itself: %v", err)
	}
	for _, proj := range []Projection{ProjStored, ProjSeeded} {
		e := goldenEncoder(t, proj, 3, 64, Nonlinear)
		bad := []float64{1, 1e308, 2}
		if _, err := e.Encode(bad); err == nil {
			t.Fatalf("%v: Encode accepted a 1e308 feature", proj)
		}
		if err := e.EncodeBatchInto([][]float64{{0, 0, 0}, bad}, make([]float64, 128), 64, 0); err == nil {
			t.Fatalf("%v: EncodeBatchInto accepted a 1e308 feature", proj)
		}
		if err := e.EncodeBitsRange(bad, 0, 64, hdc.NewBitVector(64)); err == nil {
			t.Fatalf("%v: EncodeBitsRange accepted a 1e308 feature", proj)
		}
	}
}
