package hdc

import (
	"math/rand"
	"testing"
)

const benchDim = 10000

func benchVectors(b *testing.B) (Vector, Vector) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	return RandomGaussian(benchDim, rng), RandomGaussian(benchDim, rng)
}

func BenchmarkBundleScaled(b *testing.B) {
	x, y := benchVectors(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.BundleScaled(y, 0.035)
	}
}

func BenchmarkCosine(b *testing.B) {
	x, y := benchVectors(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Cosine(x, y)
	}
}
