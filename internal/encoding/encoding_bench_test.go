package encoding

import (
	"math/rand"
	"testing"

	"boosthd/internal/hdc"
)

func benchInput(f int) []float64 {
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, f)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

func benchEncode(b *testing.B, kind Kind) {
	b.Helper()
	e, err := New(36, 10000, kind, 1)
	if err != nil {
		b.Fatal(err)
	}
	x := benchInput(36)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Encode(x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeNonlinear(b *testing.B) { benchEncode(b, Nonlinear) }
func BenchmarkEncodeRFF(b *testing.B)       { benchEncode(b, RFF) }
func BenchmarkEncodeLinear(b *testing.B)    { benchEncode(b, Linear) }

func BenchmarkEncodeBatchParallel(b *testing.B) {
	e, err := New(36, 10000, Nonlinear, 1)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	xs := make([][]float64, 64)
	for i := range xs {
		xs[i] = make([]float64, 36)
		for j := range xs[i] {
			xs[i][j] = rng.NormFloat64()
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.EncodeBatch(xs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeBatchRemat measures the seeded encoder on the same batch
// workload as BenchmarkEncodeBatchParallel: projection tiles are
// regenerated from the counter streams inside the kernel instead of being
// read from a stored matrix.
func BenchmarkEncodeBatchRemat(b *testing.B) {
	e, err := NewSeeded(36, 10000, Nonlinear, 1)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	xs := make([][]float64, 64)
	for i := range xs {
		xs[i] = make([]float64, 36)
		for j := range xs[i] {
			xs[i][j] = rng.NormFloat64()
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.EncodeBatch(xs); err != nil {
			b.Fatal(err)
		}
	}
}

func benchEncodeBits(b *testing.B, e *Encoder) {
	b.Helper()
	rng := rand.New(rand.NewSource(2))
	xs := make([][]float64, 64)
	for i := range xs {
		xs[i] = make([]float64, 36)
		for j := range xs[i] {
			xs[i][j] = rng.NormFloat64()
		}
	}
	dst := make([]*hdc.BitVector, len(xs))
	for i := range dst {
		dst[i] = hdc.NewBitVector(e.OutDim)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.EncodeBitsRangeBatch(xs, 0, e.OutDim, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeBitsStored / BenchmarkEncodeBitsRemat measure the
// sign-only batch encoders (the packed-binary backend's query path) with
// the projection stored vs rematerialized.
func BenchmarkEncodeBitsStored(b *testing.B) {
	e, err := New(36, 10000, Nonlinear, 1)
	if err != nil {
		b.Fatal(err)
	}
	benchEncodeBits(b, e)
}

func BenchmarkEncodeBitsRemat(b *testing.B) {
	e, err := NewSeeded(36, 10000, Nonlinear, 1)
	if err != nil {
		b.Fatal(err)
	}
	benchEncodeBits(b, e)
}

func BenchmarkIDLevelEncode(b *testing.B) {
	e, err := NewIDLevel(36, 10000, 32, -3, 3, 1)
	if err != nil {
		b.Fatal(err)
	}
	x := benchInput(36)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Encode(x); err != nil {
			b.Fatal(err)
		}
	}
}
