package encoding

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"boosthd/internal/hdc"
)

// testStacks builds the stacks the stack tests run at input width f:
// seeded stacks of one, three and ten sub-encoders with distinct kinds,
// gammas and seeds; one shared seeded encoder split into ten ranges, the
// layout of a BoostHD model without a bandwidth spread; and a stored
// stack. Widths cross the 256-component tile and 64-bit words.
func testStacks(t *testing.T, f int) map[string]Stack {
	t.Helper()
	kinds := []Kind{Linear, Nonlinear, RFF}
	whole := func(enc *Encoder, err error) Part {
		if err != nil {
			t.Fatal(err)
		}
		return Part{Enc: enc, Lo: 0, Hi: enc.OutDim}
	}
	seeded := func(n int) Stack {
		s := make(Stack, n)
		for i := range s {
			out := 300 // two dimension tiles
			if i > 0 {
				out = 64 + 9*i
			}
			g := DefaultGamma(f) * (1 + 0.3*float64(i))
			s[i] = whole(NewSeededWithGamma(f, out, kinds[i%3], g, int64(1+i*7717)))
		}
		return s
	}
	stored := make(Stack, 3)
	for i := range stored {
		stored[i] = whole(NewWithGamma(f, 70+90*i, kinds[i%3], DefaultGamma(f)*(1+0.5*float64(i)), int64(5+i)))
	}
	enc, err := NewSeeded(f, 410, Linear, 11)
	if err != nil {
		t.Fatal(err)
	}
	shared := make(Stack, 10)
	for i := range shared {
		shared[i] = Part{Enc: enc, Lo: 41 * i, Hi: 41 * (i + 1)}
	}
	return map[string]Stack{
		"seeded1": seeded(1), "seeded3": seeded(3), "seeded10": seeded(10),
		"shared": shared, "stored": stored,
	}
}

// stackRows draws 64 rows for stack s. Rows 1 and 2 are all +0 and all
// -0. Row 3 is +0 where the projection weight of component Lo of part 0
// is negative and -0 where it is positive, so every signed term of that
// component's projection is -0. Its sum comes out +0 only from a +0
// start, which part 0, Linear in every stack, shows in its float
// encoding; the zero rows do the same for components whose index bytes
// select an all -0 table entry in every group.
func stackRows(s Stack) [][]float64 {
	e, f := s[0].Enc, s[0].Enc.InDim
	m := e.ProjectionMatrix()
	xs := seededTestRows(int64(f), 64, f)
	for k := range xs[1] {
		xs[1][k], xs[2][k] = 0, math.Copysign(0, -1)
		xs[3][k] = math.Copysign(0, -m[s[0].Lo*f+k])
	}
	return xs
}

// refEncoding is component j of x's float encoding and sign bit
// computed the slow way: a seeded projection summed by lookup group, a
// stored one as a dot in feature index order, both from +0, with the
// phase read from the plane. The sign bit of a trigonometric kind comes
// from the turn-domain reference, and Linear's from the float
// projection.
func refEncoding(e *Encoder, m, x []float64, j int) (float64, bool) {
	p, b := seededReference(e, m, x, j)
	if e.w != nil {
		var s float64
		for k, xv := range x {
			s += m[j*e.InDim+k] * xv
		}
		p, b = s*e.Gamma, e.plane.Load().b[j]
	}
	bit := p >= 0
	if e.Kind != Linear {
		bit = turnBitRef(e, m, x, j)
	}
	return activation(e.Kind, p, b), bit
}

// TestStackMatchesOneParts is the stack kernels' contract: for every
// stack of testStacks, at feature widths giving 1 to 17 lookup groups
// and every first-pass shape of the group sum, and at row counts that
// cross the four-row and 16-row blocks, each part's float encoding and
// sign bits from the stack entry points equal that encoder's one-part
// result bit for bit, single-row and batch, and the one-part results
// equal the slow reference.
func TestStackMatchesOneParts(t *testing.T) {
	for _, f := range []int{1, 7, 9, 24, 32, 36, 48, 56, 64, 65, 100, 129} {
		for name, s := range testStacks(t, f) {
			t.Run(fmt.Sprintf("F=%d/%s", f, name), func(t *testing.T) {
				checkStack(t, s, stackRows(s))
			})
		}
	}
}

func checkStack(t *testing.T, s Stack, xs [][]float64) {
	// One-part results for every row, pinned to the reference.
	width := 0
	float := make([][]float64, len(s)) // [part][row*w + k]
	bits := make([][]*hdc.BitVector, len(s))
	for i, pt := range s {
		e, w := pt.Enc, pt.Hi-pt.Lo
		width += w
		full := make([]float64, len(xs)*e.OutDim)
		if err := e.EncodeBatchInto(xs, full, e.OutDim, 0); err != nil {
			t.Fatal(err)
		}
		bits[i] = make([]*hdc.BitVector, len(xs))
		for r := range bits[i] {
			bits[i][r] = newBits(w)
		}
		if err := e.EncodeBitsRangeBatch(xs, pt.Lo, pt.Hi, bits[i]); err != nil {
			t.Fatal(err)
		}
		m := e.ProjectionMatrix()
		float[i] = make([]float64, len(xs)*w)
		for r, x := range xs {
			copy(float[i][r*w:(r+1)*w], full[r*e.OutDim+pt.Lo:])
			for j := pt.Lo; j < pt.Hi; j++ {
				want, bit := refEncoding(e, m, x, j)
				if got := full[r*e.OutDim+j]; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("part %d row %d comp %d: one-part float %v, reference %v", i, r, j, got, want)
				}
				if bitAt(bits[i][r], j-pt.Lo) != bit {
					t.Fatalf("part %d row %d comp %d: one-part sign bit differs from the reference", i, r, j)
				}
			}
		}
	}
	check := func(how string, r int, got []float64, gotBits []*hdc.BitVector) {
		t.Helper()
		off := 0
		for i, pt := range s {
			w := pt.Hi - pt.Lo
			want := float[i][r*w : (r+1)*w]
			for k := range want {
				if math.Float64bits(got[off+k]) != math.Float64bits(want[k]) {
					t.Fatalf("%s: row %d part %d comp %d: stack %v, one-part %v", how, r, i, k, got[off+k], want[k])
				}
			}
			if !slices.Equal(gotBits[i].Words, bits[i][r].Words) {
				t.Fatalf("%s: row %d part %d: stack sign bits differ from one-part", how, r, i)
			}
			off += w
		}
	}

	for _, n := range []int{1, 3, 4, 5, 16, 17, 37, 64} {
		const offset, pad = 2, 3
		stride := offset + width + pad
		out := make([]float64, n*stride)
		if err := s.EncodeBatchInto(xs[:n], out, stride, offset); err != nil {
			t.Fatal(err)
		}
		dst := make([][]*hdc.BitVector, n)
		for r := range dst {
			dst[r] = make([]*hdc.BitVector, len(s))
			for i, pt := range s {
				dst[r][i] = newBits(pt.Hi - pt.Lo)
			}
		}
		if err := s.EncodeBitsBatch(xs[:n], dst); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < n; r++ {
			check(fmt.Sprintf("%d-row batch", n), r, out[r*stride+offset:], dst[r])
		}
	}
	one, oneBits := make([]float64, width), make([]*hdc.BitVector, len(s))
	for i, pt := range s {
		oneBits[i] = newBits(pt.Hi - pt.Lo)
	}
	for r, x := range xs {
		if err := s.EncodeInto(x, one); err != nil {
			t.Fatal(err)
		}
		if err := s.EncodeBitsBatch([][]float64{x}, [][]*hdc.BitVector{oneBits}); err != nil {
			t.Fatal(err)
		}
		check("single row", r, one, oneBits)
	}
}

// TestStackRejectsBadInput: the stack entry points reject a malformed
// stack, row or destination with an error instead of encoding it.
func TestStackRejectsBadInput(t *testing.T) {
	a, err := NewSeeded(9, 100, Nonlinear, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSeeded(10, 100, Nonlinear, 2)
	if err != nil {
		t.Fatal(err)
	}
	x := seededTestRows(1, 1, 9)[0]
	good := Stack{{a, 0, 60}, {a, 60, 100}}
	bitsOf := func(widths ...int) [][]*hdc.BitVector {
		d := make([]*hdc.BitVector, len(widths))
		for i, w := range widths {
			d[i] = newBits(w)
		}
		return [][]*hdc.BitVector{d}
	}
	one, nanRow := [][]float64{x}, [][]float64{{0, 0, 0, 0, math.NaN(), 0, 0, 0, 0}}
	if err := good.EncodeBitsBatch(one, bitsOf(60, 40)); err != nil {
		t.Fatalf("good stack: %v", err)
	}
	for name, call := range map[string]func() error{
		"empty stack":        func() error { return Stack{}.EncodeInto(x, make([]float64, 0)) },
		"range past OutDim":  func() error { return Stack{{a, 50, 101}}.EncodeBitsBatch(one, bitsOf(51)) },
		"inverted range":     func() error { return Stack{{a, 50, 40}}.EncodeInto(x, make([]float64, 0)) },
		"mixed InDim":        func() error { return Stack{{a, 0, 100}, {b, 0, 100}}.EncodeInto(x, make([]float64, 200)) },
		"short row":          func() error { return good.EncodeInto(x[:8], make([]float64, 100)) },
		"NaN feature":        func() error { return good.EncodeBitsBatch(nanRow, bitsOf(60, 40)) },
		"dst width":          func() error { return good.EncodeInto(x, make([]float64, 99)) },
		"stride":             func() error { return good.EncodeBatchInto([][]float64{x}, make([]float64, 200), 99, 0) },
		"short out":          func() error { return good.EncodeBatchInto([][]float64{x, x}, make([]float64, 150), 100, 0) },
		"bit part count":     func() error { return good.EncodeBitsBatch(one, bitsOf(60)) },
		"bit part width":     func() error { return good.EncodeBitsBatch(one, bitsOf(60, 41)) },
		"bit row count":      func() error { return good.EncodeBitsBatch([][]float64{x, x}, bitsOf(60, 40)) },
		"bad row in a batch": func() error { return good.EncodeBatchInto([][]float64{x, x[:3]}, make([]float64, 200), 100, 0) },
	} {
		if call() == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
