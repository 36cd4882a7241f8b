// Package hdc provides the hypervector operations OnlineHD and BoostHD
// train and score with: dense real hypervectors with weighted bundling,
// inner products and cosine similarity (Section II-C of the paper), plus
// the packed bit-vector the binary backend stores sign planes in.
package hdc

import (
	"fmt"
	"math"
)

// Vector is a dense real-valued hypervector.
type Vector []float64

// NewVector returns a zero hypervector of dimension d.
func NewVector(d int) Vector { return make(Vector, d) }

// Clone returns a deep copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
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

func mustSameDim(a, b int) {
	if a != b {
		panic(fmt.Sprintf("hdc: dimension mismatch %d != %d", a, b))
	}
}
