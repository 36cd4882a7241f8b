package encoding

import (
	"math"
	"math/rand"
	"slices"
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
			bits := newBits(hi - lo)
			if err := e.EncodeBitsRange(x, lo, hi, bits); err != nil {
				t.Fatal(err)
			}
			for j := lo; j < hi; j++ {
				want := h[j] >= 0
				if got := bitAt(bits, j-lo); got != want {
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
			dst[i] = newBits(150)
		}
		if err := e.EncodeBitsRangeBatch(xs, 0, 150, dst); err != nil {
			t.Fatal(err)
		}
		for i, x := range xs {
			want := newBits(150)
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

// invTwoPi and phaseFrac give the float form of the sign rule: the
// fidelity tests hold the turn kernel to it.
const invTwoPi = 1 / (2 * math.Pi)

// phaseFrac returns t/(2*pi) mod 1 in [0,1).
func phaseFrac(t float64) float64 {
	f := t * invTwoPi
	return f - math.Floor(f)
}

// floatSign is the sign, true for >= 0, of the encoding of projection p
// under phase b, read off float phase fractions in the comparison form,
// with strict inequalities at the quadrant boundaries.
func floatSign(kind Kind, p, b float64) bool {
	fc := phaseFrac(p + b)
	cosNeg := fc > 0.25 && fc < 0.75
	switch kind {
	case Nonlinear:
		return (phaseFrac(p) > 0.5) == cosNeg
	case RFF:
		return !cosNeg
	}
	return p >= 0
}

// refTurns is toTurns computed another way: v mod 1 from math.Mod, moved
// into [0,1], scaled by 2^32 and truncated.
func refTurns(v float64) uint32 {
	f := math.Mod(v, 1)
	if f < 0 {
		f++
	}
	return uint32(uint64(f * (1 << 32)))
}

// turnSignRef is the sign, true for >= 0, of a trigonometric component
// with phases u and q in turns, in the comparison form: sin negative
// only for u strictly past the half turn, cos only for q strictly
// between the quarter and three-quarter turns.
func turnSignRef(kind Kind, u, q uint32) bool {
	cosNeg := q > 1<<30 && q < 3<<30
	if kind == RFF {
		return !cosNeg
	}
	return (u > 1<<31) == cosNeg
}

// turnBitRef is the sign bit of trigonometric component j of x computed
// the slow way in turns, sharing no kernel code but the plane's stored
// phases: u is, on a seeded encoder, the wrapping sum over features of
// ±refTurns(x_k*Gamma/2π) under the signs of row j of the projection m,
// and, on a stored one, refTurns of Gamma/2π times the index-order dot
// with row j; q adds the phase in turns, from the stream on a seeded
// encoder and converted from the stored radians on a stored one.
func turnBitRef(e *Encoder, m, x []float64, j int) bool {
	c := e.Gamma / twoPi
	var u, bt uint32
	if e.w == nil {
		for k, xv := range x {
			t := refTurns(xv * c)
			if m[j*e.InDim+k] < 0 {
				t = -t
			}
			u += t
		}
		_, bt = e.phaseAt(j)
	} else {
		var s float64
		for k, xv := range x {
			s += m[j*e.InDim+k] * xv
		}
		u, bt = refTurns(s*c), refTurns(e.plane.Load().b[j]/twoPi)
	}
	return turnSignRef(e.Kind, u, u+bt)
}

// TestSignBitMatchesComparison pins the sign kernel's branch-free steps
// against their comparison forms. toTurns must equal refTurns, and
// Linear's linearSign the comparison p >= 0, on random values over
// twelve decades and on whole, half and quarter turns, signed zeros,
// subnormals, the 2^52 edge and values up to ±MaxFeature. turnSign must
// equal the comparison form, for Nonlinear and for RFF (u = 0), on every
// quadrant boundary of u and q, one count either side of each, and
// random phases.
func TestSignBitMatchesComparison(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vs := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-20, -1e-20, 0.25, -0.25, 0.5, -0.5, 0.75, -0.75,
		1, -1, math.Nextafter(1, 0), -math.Nextafter(1, 0), 1e9 + 0.25, -1e9 - 0.25,
		1<<52 - 0.5, -(1<<52 - 0.5), 1 << 52, -(1 << 52), 1e300, -1e300, MaxFeature, -MaxFeature}
	for i := 0; i < 20000; i++ {
		vs = append(vs, rng.NormFloat64()*math.Pow(10, float64(rng.Intn(12)-4)))
	}
	for _, v := range vs {
		if got, want := toTurns(v), refTurns(v); got != want {
			t.Fatalf("toTurns(%v) = %#x, reference %#x", v, got, want)
		}
		if got, want := linearSign(v) == 1, v >= 0; got != want {
			t.Fatalf("linearSign(%v) = %v, comparison %v", v, got, want)
		}
	}
	for v, want := range map[float64]uint32{0.25: 1 << 30, -0.25: 3 << 30, 0.5: 1 << 31, -0.5: 1 << 31, 1e9 + 0.25: 1 << 30, 1 << 52: 0, -1e-20: 0} {
		if got := toTurns(v); got != want {
			t.Fatalf("toTurns(%v) = %#x, want %#x", v, got, want)
		}
	}
	var grid []uint32
	for _, q := range []uint32{0, 1 << 30, 1 << 31, 3 << 30} {
		grid = append(grid, q-1, q, q+1)
	}
	for i := 0; i < 200; i++ {
		grid = append(grid, rng.Uint32())
	}
	for _, u := range grid {
		for _, q := range grid {
			if got, want := turnSign(u, q) == 1, turnSignRef(Nonlinear, u, q); got != want {
				t.Fatalf("turnSign(%#x, %#x) = %v, comparison %v", u, q, got, want)
			}
			if got, want := turnSign(0, q) == 1, turnSignRef(RFF, u, q); got != want {
				t.Fatalf("turnSign(0, %#x) = %v, comparison %v", q, got, want)
			}
		}
	}
}

// onTurn returns a feature value x with toTurns(x*c) == t exactly.
func onTurn(t *testing.T, c float64, turn uint32) float64 {
	t.Helper()
	x := (float64(turn) + 0.5) / (1 << 32) / c
	for i := 0; i < 64; i++ {
		switch got := refTurns(x * c); {
		case got == turn:
			return x
		case got-turn < 1<<31:
			x = math.Nextafter(x, math.Inf(-1))
		default:
			x = math.Nextafter(x, math.Inf(1))
		}
	}
	t.Fatalf("no feature value lands on turn %#x", turn)
	return 0
}

// TestSignBitsExtremeRows runs the sign kernel on the rows where the
// turn domain is exact: features at ±MaxFeature, at ±1e9 and mixed with
// ordinary values, and rows whose phases sit exactly on a quadrant
// boundary. The zero row puts every u at 0; a row whose first feature is
// half a turn puts every u at the half turn; and rows whose first
// feature moves q of a chosen component onto the quarter or
// three-quarter turn. Each encoder runs at the default bandwidth and
// then at the smallest positive one, whose Gamma/2π rounds to 0, so
// every u is 0 while the pooled scratch still holds the first
// encoder's tables. On every seeded and stored kind, batch bits equal
// single-row bits, which equal the slow turn-domain reference (for
// Linear, the sign of the float reference projection), and nothing
// panics.
func TestSignBitsExtremeRows(t *testing.T) {
	const f = 9
	for _, proj := range []Projection{ProjSeeded, ProjStored} {
		for _, kind := range []Kind{Nonlinear, RFF, Linear} {
			for _, gamma := range []float64{DefaultGamma(f), 5e-324} {
				checkExtremeRows(t, proj, kind, gamma)
			}
		}
	}
}

func checkExtremeRows(t *testing.T, proj Projection, kind Kind, gamma float64) {
	const f = 9
	e, err := NewWithGamma(f, 200, kind, gamma, 42)
	if proj == ProjSeeded {
		e, err = NewSeededWithGamma(f, 200, kind, gamma, 42)
	}
	if err != nil {
		t.Fatal(err)
	}
	m := e.ProjectionMatrix()
	c := e.Gamma / twoPi
	row := func(x0 float64, rest ...float64) []float64 {
		x := make([]float64, f)
		x[0] = x0
		copy(x[1:], rest)
		return x
	}
	xs := [][]float64{
		row(MaxFeature, MaxFeature, MaxFeature, MaxFeature, MaxFeature, MaxFeature, MaxFeature, MaxFeature, MaxFeature),
		row(-MaxFeature, MaxFeature, -MaxFeature, MaxFeature, -MaxFeature, MaxFeature, -MaxFeature, MaxFeature, -MaxFeature),
		row(MaxFeature, 0.3, -1.2, 2, 0.7, -0.1, 1.5, -2.2, 0.9),
		row(1e9, 1e9, 1e9, 1e9, 1e9, 1e9, 1e9, 1e9, 1e9),
		row(-1e9, 0.3, 1e9, -1.2, 2, -1e9, 0.7, 1e9, -0.4),
		row(0),
	}
	if c > 0 {
		xs = append(xs, row(onTurn(t, c, 1<<31)))
	}
	if kind != Linear && proj == ProjSeeded && c > 0 {
		for j := 0; j < 8; j++ {
			_, bt := e.phaseAt(j)
			for _, q := range []uint32{1 << 30, 3 << 30} {
				turn := q - bt // u = +turn under a +1 weight
				if m[j*f] < 0 {
					turn = -turn
				}
				xs = append(xs, row(onTurn(t, c, turn)))
			}
		}
	}
	for _, lo := range []int{0, 35} {
		width := e.OutDim - lo
		batch := make([]*hdc.BitVector, len(xs))
		for i := range batch {
			batch[i] = newBits(width)
		}
		if err := e.EncodeBitsRangeBatch(xs, lo, e.OutDim, batch); err != nil {
			t.Fatal(err)
		}
		for i, x := range xs {
			one := newBits(width)
			if err := e.EncodeBitsRange(x, lo, e.OutDim, one); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(one.Words, batch[i].Words) {
				t.Fatalf("%v/%v gamma %v row %d from %d: batch bits differ from single-row bits", proj, kind, gamma, i, lo)
			}
			for j := lo; j < e.OutDim; j++ {
				if _, want := refEncoding(e, m, x, j); bitAt(one, j-lo) != want {
					t.Fatalf("%v/%v gamma %v row %d comp %d: kernel bit %v, reference %v", proj, kind, gamma, i, j, !want, want)
				}
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
		if err := e.EncodeBitsRange(bad, 0, 64, newBits(64)); err == nil {
			t.Fatalf("%v: EncodeBitsRange accepted a 1e308 feature", proj)
		}
	}
}
