// Package hdc provides the hyperdimensional-computing algebra underlying
// OnlineHD and BoostHD: dense real hypervectors with bundling, binding,
// permutation and cosine similarity (Section II-C of the paper), plus a
// packed bit-vector representation with XOR binding and Hamming similarity
// for hardware-oriented deployments.
package hdc

import (
	"fmt"
	"math"
	"math/rand"
)

// Vector is a dense real-valued hypervector.
type Vector []float64

// NewVector returns a zero hypervector of dimension d.
func NewVector(d int) Vector { return make(Vector, d) }

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

// Clone returns a deep copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Dim returns the dimensionality of v.
func (v Vector) Dim() int { return len(v) }

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

// BundleScaled accumulates alpha*src into v, the weighted bundling used by
// OnlineHD model updates (W <- W + lr*(1-delta)*H).
//
//hd:mutates
func (v Vector) BundleScaled(src Vector, alpha float64) {
	mustSameDim(len(v), len(src))
	for i, s := range src {
		v[i] += alpha * s
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

// Dot returns the inner product of a and b.
func Dot(a, b Vector) float64 {
	mustSameDim(len(a), len(b))
	var s float64
	for i, x := range a {
		s += x * b[i]
	}
	return s
}

// Dots writes the inner product of h with every vector of vs into dots
// (one per vector) and returns h's squared norm, in one pass over h. The
// two- and three-vector bodies (the paper's healthcare datasets) hoist
// the vectors into independent accumulator chains. Every product and the
// norm accumulate in index order, so the results are bit-identical to
// separate Dot calls and to Norm(h) squared before its square root. It
// panics on a dimension mismatch, as Dot does.
//
//hd:hotpath
func Dots(h Vector, vs []Vector, dots []float64) (hn2 float64) {
	n := len(h)
	for _, v := range vs {
		mustSameDim(n, len(v))
	}
	switch len(vs) {
	case 2:
		v0, v1 := vs[0][:n], vs[1][:n]
		var d0, d1 float64
		for k, hv := range h {
			hn2 += hv * hv
			d0 += hv * v0[k]
			d1 += hv * v1[k]
		}
		dots[0], dots[1] = d0, d1
	case 3:
		v0, v1, v2 := vs[0][:n], vs[1][:n], vs[2][:n]
		var d0, d1, d2 float64
		for k, hv := range h {
			hn2 += hv * hv
			d0 += hv * v0[k]
			d1 += hv * v1[k]
			d2 += hv * v2[k]
		}
		dots[0], dots[1], dots[2] = d0, d1, d2
	default:
		dots = dots[:len(vs)]
		for c := range dots {
			dots[c] = 0
		}
		for k, hv := range h {
			hn2 += hv * hv
			for c, v := range vs {
				dots[c] += hv * v[k]
			}
		}
	}
	return hn2
}

// Norm returns the Euclidean norm of v.
func Norm(v Vector) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// Cosine returns the similarity metric of the paper's Eq. 1,
// delta(V1,V2) = V1.V2 / (||V1|| ||V2||); zero vectors give 0.
func Cosine(a, b Vector) float64 {
	na, nb := Norm(a), Norm(b)
	if na == 0 || nb == 0 {
		return 0
	}
	return Dot(a, b) / (na * nb)
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

func mustSameDim(a, b int) {
	if a != b {
		panic(fmt.Sprintf("hdc: dimension mismatch %d != %d", a, b))
	}
}
