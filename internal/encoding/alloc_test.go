//go:build !race

// The race detector makes sync.Pool drop items at random, so allocation
// pins on pooled scratch hold only in a normal build.

package encoding

import (
	"testing"

	"boosthd/internal/hdc"
)

// TestSeededEncodeZeroAlloc: once its lookup scratch is pooled, a
// single-row seeded encode allocates nothing, float or sign bits.
func TestSeededEncodeZeroAlloc(t *testing.T) {
	e, err := NewSeeded(36, 1000, Nonlinear, 1)
	if err != nil {
		t.Fatal(err)
	}
	x := seededTestRows(1, 1, 36)[0]
	dst := make([]float64, e.OutDim)
	bits := hdc.NewBitVector(e.OutDim)
	allocs := testing.AllocsPerRun(100, func() {
		if err := e.EncodeInto(x, dst); err != nil {
			t.Fatal(err)
		}
		if err := e.EncodeBitsRange(x, 0, e.OutDim, bits); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm single-row seeded encode allocates %v times", allocs)
	}
}
