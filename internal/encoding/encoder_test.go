package encoding

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"boosthd/internal/hdc"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 10, Nonlinear, 1); err == nil {
		t.Error("expected error for inDim=0")
	}
	if _, err := New(10, 0, Nonlinear, 1); err == nil {
		t.Error("expected error for outDim=0")
	}
}

func TestEncodeShapeAndRange(t *testing.T) {
	e, err := New(4, 128, Nonlinear, 42)
	if err != nil {
		t.Fatal(err)
	}
	h, err := e.Encode([]float64{0.1, -0.5, 1.2, 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(h) != 128 {
		t.Fatalf("len(h) = %d, want 128", len(h))
	}
	// cos*sin is bounded by 1 in magnitude.
	for _, v := range h {
		if math.Abs(v) > 1 {
			t.Fatalf("nonlinear activation out of range: %v", v)
		}
	}
	if _, err := e.Encode([]float64{1}); err == nil {
		t.Error("expected length error")
	}
}

func TestEncoderDeterministicPerSeed(t *testing.T) {
	x := []float64{0.3, 0.7, -0.2}
	a, _ := New(3, 64, Nonlinear, 7)
	b, _ := New(3, 64, Nonlinear, 7)
	c, _ := New(3, 64, Nonlinear, 8)
	ha, _ := a.Encode(x)
	hb, _ := b.Encode(x)
	hc, _ := c.Encode(x)
	for i := range ha {
		if ha[i] != hb[i] {
			t.Fatal("same seed must give identical encodings")
		}
	}
	same := true
	for i := range ha {
		if ha[i] != hc[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds should give different encodings")
	}
}

func TestEncoderKinds(t *testing.T) {
	x := []float64{0.5, -1}
	for _, k := range []Kind{Nonlinear, RFF, Linear} {
		e, err := New(2, 32, k, 3)
		if err != nil {
			t.Fatal(err)
		}
		h, err := e.Encode(x)
		if err != nil {
			t.Fatal(err)
		}
		if len(h) != 32 {
			t.Fatalf("kind %v: wrong length", k)
		}
		if k == RFF {
			for _, v := range h {
				if v < -1 || v > 1 {
					t.Fatalf("RFF out of [-1,1]: %v", v)
				}
			}
		}
	}
	if Nonlinear.String() != "nonlinear" || RFF.String() != "rff" || Linear.String() != "linear" {
		t.Error("Kind.String broken")
	}
	if Kind(99).String() == "" {
		t.Error("unknown Kind should still print")
	}
}

func TestEncodingPreservesLocality(t *testing.T) {
	// Nearby inputs must stay more similar than distant inputs — the
	// property that makes HDC classification work at all.
	e, _ := New(6, 4096, Nonlinear, 11)
	rng := rand.New(rand.NewSource(5))
	x := make([]float64, 6)
	for i := range x {
		x[i] = rng.Float64()
	}
	near := make([]float64, 6)
	far := make([]float64, 6)
	for i := range x {
		near[i] = x[i] + 0.01*rng.NormFloat64()
		far[i] = x[i] + 2*rng.NormFloat64()
	}
	hx, _ := e.Encode(x)
	hn, _ := e.Encode(near)
	hf, _ := e.Encode(far)
	simNear := hdc.Cosine(hx, hn)
	simFar := hdc.Cosine(hx, hf)
	if simNear <= simFar {
		t.Errorf("locality violated: near %v <= far %v", simNear, simFar)
	}
	if simNear < 0.8 {
		t.Errorf("tiny perturbation should stay close: %v", simNear)
	}
}

func TestEncodeBatchMatchesEncode(t *testing.T) {
	e, _ := New(3, 256, Nonlinear, 13)
	xs := [][]float64{{1, 2, 3}, {0, 0, 0}, {-1, 0.5, 2}}
	batch, err := e.EncodeBatch(xs)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range xs {
		single, _ := e.Encode(x)
		for j := range single {
			if single[j] != batch[i][j] {
				t.Fatalf("batch row %d differs from single encode", i)
			}
		}
	}
	// Errors propagate.
	if _, err := e.EncodeBatch([][]float64{{1, 2, 3}, {1}}); err == nil {
		t.Error("expected batch error for bad row")
	}
	// Empty batch is fine.
	if out, err := e.EncodeBatch(nil); err != nil || len(out) != 0 {
		t.Error("empty batch should succeed")
	}
}

func TestProjectionMatrixIsCopy(t *testing.T) {
	e, _ := New(2, 8, Linear, 1)
	m := e.ProjectionMatrix()
	if len(m) != 16 {
		t.Fatalf("len = %d, want 16", len(m))
	}
	m[0] += 100
	m2 := e.ProjectionMatrix()
	if m2[0] == m[0] {
		t.Error("ProjectionMatrix must return a copy")
	}
}

// Property: encoding is deterministic — same input twice gives the same
// hypervector.
func TestEncodeDeterministicQuick(t *testing.T) {
	e, _ := New(4, 64, Nonlinear, 21)
	f := func(a, b, c, d float64) bool {
		clamp := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return math.Mod(v, 100)
		}
		x := []float64{clamp(a), clamp(b), clamp(c), clamp(d)}
		h1, err1 := e.Encode(x)
		h2, err2 := e.Encode(x)
		if err1 != nil || err2 != nil {
			return false
		}
		for i := range h1 {
			if h1[i] != h2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// newBits returns an all-zero packed hypervector of dimension n.
func newBits(n int) *hdc.BitVector {
	return &hdc.BitVector{N: n, Words: make([]uint64, (n+63)/64)}
}

// bitAt reports bit i of b.
func bitAt(b *hdc.BitVector, i int) bool {
	return b.Words[i/64]>>(i%64)&1 != 0
}

// The one-encoder entry points below are the tests' references. Training
// and serving reach the kernels through Stack and EncodeBatchInto; these
// wrap the same kernels for one encoder and one row.

// New builds an encoder with N(0,1) projection weights, uniform phases,
// and the DefaultGamma bandwidth, all drawn deterministically from seed.
func New(inDim, outDim int, kind Kind, seed int64) (*Encoder, error) {
	return NewWithGamma(inDim, outDim, kind, DefaultGamma(inDim), seed)
}

// EncodeInto maps one feature vector into hyperspace, writing the result
// into dst (length OutDim): the one-part case of Stack.EncodeInto, and
// allocation-free once warm.
func (e *Encoder) EncodeInto(x []float64, dst []float64) error {
	s := e.onePart(0, e.OutDim)
	return Stack(s[:]).EncodeInto(x, dst)
}

// Encode maps one feature vector into hyperspace.
func (e *Encoder) Encode(x []float64) (hdc.Vector, error) {
	h := make(hdc.Vector, e.OutDim)
	if err := e.EncodeInto(x, h); err != nil {
		return nil, err
	}
	return h, nil
}

// EncodeBitsRange writes the sign bits of encoding components [lo,hi) of x
// into dst: bit k of dst is set iff component lo+k of the encoding is
// >= 0. For the trigonometric kinds the sign is derived from the phase
// quadrants directly — sign(cos(d+b)*sin(d)) = sign(cos(d+b))*sign(sin(d))
// — with the phases held as wrapping counts of 2^-32 turn, so the
// packed-binary backend never evaluates sin or cos at all. It is the
// one-part case of Stack.EncodeBits, and allocation-free once warm.
func (e *Encoder) EncodeBitsRange(x []float64, lo, hi int, dst *hdc.BitVector) error {
	s, ds := e.onePart(lo, hi), [1]*hdc.BitVector{dst}
	return Stack(s[:]).EncodeBits(x, ds[:])
}

// EncodeBitsRangeBatch encodes components [lo,hi) of every row of xs into
// dst: bit k of dst[r] is the sign bit of component lo+k of row r's
// encoding. It is the one-part case of Stack.EncodeBitsBatch.
func (e *Encoder) EncodeBitsRangeBatch(xs [][]float64, lo, hi int, dst []*hdc.BitVector) error {
	rows := make([][]*hdc.BitVector, len(dst))
	for r := range dst {
		rows[r] = dst[r : r+1]
	}
	s := e.onePart(lo, hi)
	return Stack(s[:]).EncodeBitsBatch(xs, rows)
}

// ProjectionMatrix returns a copy of the OutDim x InDim projection weights,
// the seeded tests' reference matrix. A seeded encoder generates its ±1
// rows on demand from the sign stream, so the result is independent of
// the plane the kernels read.
func (e *Encoder) ProjectionMatrix() []float64 {
	if e.w != nil {
		return append([]float64(nil), e.w...)
	}
	out := make([]float64, e.OutDim*e.InDim)
	for j := 0; j < e.OutDim; j++ {
		for k := 0; k < e.InDim; k++ {
			out[j*e.InDim+k] = -1
			if e.signWord(j, k/64)>>(k%64)&1 == 1 {
				out[j*e.InDim+k] = 1
			}
		}
	}
	return out
}

// NewSeeded builds a seeded (ProjSeeded) encoder with the DefaultGamma
// bandwidth.
func NewSeeded(inDim, outDim int, kind Kind, seed int64) (*Encoder, error) {
	return NewSeededWithGamma(inDim, outDim, kind, DefaultGamma(inDim), seed)
}
