package hdc

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestBundle(t *testing.T) {
	a := Vector{1, 2, 3}
	a.Bundle(Vector{1, 1, 1})
	if a[0] != 2 || a[1] != 3 || a[2] != 4 {
		t.Errorf("Bundle = %v", a)
	}
}

func TestBundleScaled(t *testing.T) {
	a := Vector{1, 0}
	a.BundleScaled(Vector{2, 2}, 0.5)
	if a[0] != 2 || a[1] != 1 {
		t.Errorf("BundleScaled = %v", a)
	}
}

func TestBundleDimensionPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on dimension mismatch")
		}
	}()
	a := Vector{1}
	a.Bundle(Vector{1, 2})
}

func TestBundleAll(t *testing.T) {
	got := BundleAll(Vector{1, 1}, Vector{2, 2}, Vector{3, 3})
	if got[0] != 6 || got[1] != 6 {
		t.Errorf("BundleAll = %v", got)
	}
	if BundleAll() != nil {
		t.Error("BundleAll() should be nil")
	}
}

func TestBind(t *testing.T) {
	r := Bind(Vector{1, -1, 2}, Vector{3, 3, -1})
	if r[0] != 3 || r[1] != -3 || r[2] != -2 {
		t.Errorf("Bind = %v", r)
	}
}

func TestBindOrthogonality(t *testing.T) {
	// delta(bind(a,b), a) ~ 0 for random bipolar hypervectors.
	rng := rand.New(rand.NewSource(9))
	a := RandomBipolar(8192, rng)
	b := RandomBipolar(8192, rng)
	r := Bind(a, b)
	if c := Cosine(r, a); math.Abs(c) > 0.05 {
		t.Errorf("bound vector not orthogonal to input: cosine = %v", c)
	}
	if c := Cosine(r, b); math.Abs(c) > 0.05 {
		t.Errorf("bound vector not orthogonal to input: cosine = %v", c)
	}
}

func TestPermute(t *testing.T) {
	v := Vector{1, 2, 3, 4}
	got := Permute(v, 1)
	want := Vector{4, 1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Permute(1) = %v, want %v", got, want)
		}
	}
	// Negative and wrapping shifts.
	got = Permute(v, -1)
	want = Vector{2, 3, 4, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Permute(-1) = %v, want %v", got, want)
		}
	}
	got = Permute(v, 5)
	want = Vector{4, 1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Permute(5) = %v, want %v", got, want)
		}
	}
	if len(Permute(Vector{}, 3)) != 0 {
		t.Error("Permute of empty should be empty")
	}
}

func TestPermutePreservesNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	v := RandomGaussian(256, rng)
	if !almostEq(Norm(v), Norm(Permute(v, 13)), 1e-12) {
		t.Error("permutation must preserve norm")
	}
}

func TestCosine(t *testing.T) {
	if !almostEq(Cosine(Vector{1, 0}, Vector{2, 0}), 1, 1e-12) {
		t.Error("parallel vectors should have cosine 1")
	}
	if Cosine(Vector{0, 0}, Vector{1, 1}) != 0 {
		t.Error("zero vector cosine should be 0")
	}
}

func TestRandomOrthogonality(t *testing.T) {
	// Random hypervectors in high dimension are quasi-orthogonal — the
	// founding property of HDC.
	rng := rand.New(rand.NewSource(3))
	a := RandomGaussian(8192, rng)
	b := RandomGaussian(8192, rng)
	if c := Cosine(a, b); math.Abs(c) > 0.05 {
		t.Errorf("random hypervectors should be quasi-orthogonal, cosine = %v", c)
	}
}

func TestNormalize(t *testing.T) {
	v := Vector{3, 4}
	v.Normalize()
	if !almostEq(Norm(v), 1, 1e-12) {
		t.Errorf("norm after Normalize = %v", Norm(v))
	}
	z := Vector{0, 0}
	z.Normalize() // must not panic or produce NaN
	if z[0] != 0 || z[1] != 0 {
		t.Error("zero vector should stay zero")
	}
}

func TestScaleQuantize(t *testing.T) {
	v := Vector{-2, 0, 5}
	v.Scale(2)
	if v[0] != -4 || v[2] != 10 {
		t.Errorf("Scale = %v", v)
	}
	q := v.Quantize()
	if q[0] != -1 || q[1] != 1 || q[2] != 1 {
		t.Errorf("Quantize = %v", q)
	}
}

func TestSlice(t *testing.T) {
	v := Vector{0, 1, 2, 3, 4, 5}
	s := v.Slice(2, 4)
	if len(s) != 2 || s[0] != 2 || s[1] != 3 {
		t.Errorf("Slice = %v", s)
	}
	// Views alias the parent storage — BoostHD partitioning relies on it.
	s[0] = 99
	if v[2] != 99 {
		t.Error("Slice must be a view, not a copy")
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic on invalid slice")
		}
	}()
	v.Slice(4, 2)
}

func TestBundlePreservesSimilarity(t *testing.T) {
	// A bundle remains similar to each of its components.
	rng := rand.New(rand.NewSource(4))
	a := RandomGaussian(4096, rng)
	b := RandomGaussian(4096, rng)
	s := BundleAll(a, b)
	if Cosine(s, a) < 0.5 || Cosine(s, b) < 0.5 {
		t.Errorf("bundle should stay similar to components: %v, %v",
			Cosine(s, a), Cosine(s, b))
	}
}

// Property: bundling is commutative.
func TestBundleCommutativeQuick(t *testing.T) {
	f := func(a, b [16]float64) bool {
		x := Vector(a[:]).Clone()
		y := Vector(b[:]).Clone()
		ab := BundleAll(x, y)
		ba := BundleAll(y, x)
		for i := range ab {
			if math.IsNaN(ab[i]) && math.IsNaN(ba[i]) {
				continue
			}
			if ab[i] != ba[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: binding with an all-ones vector is the identity.
func TestBindIdentityQuick(t *testing.T) {
	f := func(a [16]float64) bool {
		ones := make(Vector, 16)
		for i := range ones {
			ones[i] = 1
		}
		r := Bind(a[:], ones)
		for i := range r {
			if math.IsNaN(a[i]) {
				continue
			}
			if r[i] != a[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: permutation by d (full cycle) is the identity.
func TestPermuteFullCycleQuick(t *testing.T) {
	f := func(a [24]float64, kRaw uint8) bool {
		v := Vector(a[:])
		k := int(kRaw)
		p := Permute(Permute(v, k), -k)
		for i := range v {
			if math.IsNaN(v[i]) {
				continue
			}
			if p[i] != v[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestDotsMatchesDotAndNorm: the fused kernel's dots and squared norm
// are bit-identical to separate Dot calls and Norm, for the two- and
// three-vector bodies and the general one.
func TestDotsMatchesDotAndNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for n := 1; n <= 5; n++ {
		h := RandomGaussian(97, rng)
		vs := make([]Vector, n)
		for i := range vs {
			vs[i] = RandomGaussian(97, rng)
		}
		dots := make([]float64, n)
		hn2 := Dots(h, vs, dots)
		if math.Float64bits(math.Sqrt(hn2)) != math.Float64bits(Norm(h)) {
			t.Fatalf("%d vectors: norm %v, want %v", n, math.Sqrt(hn2), Norm(h))
		}
		for i, v := range vs {
			if math.Float64bits(dots[i]) != math.Float64bits(Dot(h, v)) {
				t.Fatalf("%d vectors: dot %d is %v, want %v", n, i, dots[i], Dot(h, v))
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Dots accepted a dimension mismatch")
		}
	}()
	Dots(NewVector(4), []Vector{NewVector(4), NewVector(5)}, make([]float64, 2))
}

// The operations below complete the classic HDC algebra (bundling,
// binding, permutation, quantization). Training and serving use none of
// them, so they live beside the tests that check their properties.

// RandomGaussian returns a hypervector with i.i.d. N(0,1) components, the
// distribution the paper configures for OnlineHD ("Gaussian distribution
// N(0,1)").
func RandomGaussian(d int, rng *rand.Rand) Vector {
	v := make(Vector, d)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// RandomBipolar returns a hypervector with i.i.d. ±1 components.
func RandomBipolar(d int, rng *rand.Rand) Vector {
	v := make(Vector, d)
	for i := range v {
		if rng.Intn(2) == 0 {
			v[i] = 1
		} else {
			v[i] = -1
		}
	}
	return v
}

// Bundle accumulates src into v element-wise (R = V1 + V2), the HDC
// memorization primitive. It panics on dimension mismatch, which indicates
// a caller bug: all hypervectors in one space share a dimension.
//
//hd:mutates
func (v Vector) Bundle(src Vector) {
	mustSameDim(len(v), len(src))
	for i, s := range src {
		v[i] += s
	}
}

// BundleAll sums vs into a fresh hypervector. It returns nil for no input.
func BundleAll(vs ...Vector) Vector {
	if len(vs) == 0 {
		return nil
	}
	out := vs[0].Clone()
	for _, v := range vs[1:] {
		out.Bundle(v)
	}
	return out
}

// Bind returns the element-wise product a*b, creating a hypervector
// quasi-orthogonal to both inputs (delta(R, V1) ~ 0 for random inputs).
func Bind(a, b Vector) Vector {
	mustSameDim(len(a), len(b))
	out := make(Vector, len(a))
	for i := range a {
		out[i] = a[i] * b[i]
	}
	return out
}

// Permute returns v circularly shifted right by k positions (k may be
// negative or exceed the dimension). Permutation encodes sequence order.
func Permute(v Vector, k int) Vector {
	n := len(v)
	if n == 0 {
		return Vector{}
	}
	k = ((k % n) + n) % n
	out := make(Vector, n)
	copy(out[k:], v[:n-k])
	copy(out[:k], v[n-k:])
	return out
}

// Normalize scales v to unit norm in place; the zero vector is unchanged.
//
//hd:mutates
func (v Vector) Normalize() {
	n := Norm(v)
	if n == 0 {
		return
	}
	inv := 1 / n
	for i := range v {
		v[i] *= inv
	}
}

// Scale multiplies every component by alpha in place.
//
//hd:mutates
func (v Vector) Scale(alpha float64) {
	for i := range v {
		v[i] *= alpha
	}
}

// Quantize returns the bipolar sign vector of v (0 maps to +1), the usual
// step when moving a trained float model onto binary hardware.
func (v Vector) Quantize() Vector {
	out := make(Vector, len(v))
	for i, x := range v {
		if x < 0 {
			out[i] = -1
		} else {
			out[i] = 1
		}
	}
	return out
}

// Slice returns the subspace view v[lo:hi] without copying. BoostHD weak
// learners operate on such contiguous dimension segments (Figure 1).
func (v Vector) Slice(lo, hi int) Vector {
	if lo < 0 || hi > len(v) || lo >= hi {
		panic(fmt.Sprintf("hdc: invalid slice [%d:%d) of dim %d", lo, hi, len(v)))
	}
	return v[lo:hi]
}
