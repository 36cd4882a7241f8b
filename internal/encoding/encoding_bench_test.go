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
		dst[i] = newBits(e.OutDim)
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

// benchStack builds the stack of a packed-binary model at Dtotal=10000
// with ten learners: ten seeded 36x1000 sub-encoders, one part each, and
// per-row bit destinations for n rows.
func benchStack(b *testing.B, n int) (Stack, [][]*hdc.BitVector) {
	b.Helper()
	s := make(Stack, 10)
	for i := range s {
		e, err := NewSeeded(36, 1000, Nonlinear, int64(1+i*7717))
		if err != nil {
			b.Fatal(err)
		}
		s[i] = Part{Enc: e, Lo: 0, Hi: e.OutDim}
	}
	dst := make([][]*hdc.BitVector, n)
	for r := range dst {
		dst[r] = make([]*hdc.BitVector, len(s))
		for i := range dst[r] {
			dst[r][i] = newBits(1000)
		}
	}
	return s, dst
}

// BenchmarkEncodeBitsRow measures one row through the stack entry point
// of ten seeded 36x1000 sub-encoders — the sign-bit encode of a lone
// /predict on the packed binary backend at Dtotal=10000 with ten
// learners. It is not pinned in BENCH_baseline.json.
func BenchmarkEncodeBitsRow(b *testing.B) {
	s, dst := benchStack(b, 1)
	xs := [][]float64{benchInput(36)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.EncodeBitsBatch(xs, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeBitsStackBatch measures 64 rows through the same stack
// on one goroutine — the sign-bit encode work of one 64-row
// /predict_batch call. It is not pinned in BENCH_baseline.json.
func BenchmarkEncodeBitsStackBatch(b *testing.B) {
	s, dst := benchStack(b, 64)
	rng := rand.New(rand.NewSource(2))
	xs := make([][]float64, len(dst))
	for i := range xs {
		xs[i] = make([]float64, 36)
		for j := range xs[i] {
			xs[i][j] = rng.NormFloat64()
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.EncodeBitsBatch(xs, dst); err != nil {
			b.Fatal(err)
		}
	}
}
