//go:build !race

// The race detector makes sync.Pool drop items at random, so allocation
// pins on pooled scratch hold only in a normal build.

package encoding

import (
	"testing"

	"boosthd/internal/hdc"
)

// TestSeededEncodeZeroAlloc: once its kernel scratch is pooled, a
// single-row seeded encode allocates nothing, float or sign bits, on a
// lone encoder or a ten-part stack.
func TestSeededEncodeZeroAlloc(t *testing.T) {
	e, err := NewSeeded(36, 1000, Nonlinear, 1)
	if err != nil {
		t.Fatal(err)
	}
	stack := make(Stack, 10)
	stackBits := make([]*hdc.BitVector, len(stack))
	for i := range stack {
		sub, err := NewSeeded(36, 100, Nonlinear, int64(2+i))
		if err != nil {
			t.Fatal(err)
		}
		stack[i], stackBits[i] = Part{sub, 0, sub.OutDim}, newBits(sub.OutDim)
	}
	x := seededTestRows(1, 1, 36)[0]
	dst := make([]float64, e.OutDim)
	bits := newBits(e.OutDim)
	allocs := testing.AllocsPerRun(100, func() {
		if err := e.EncodeInto(x, dst); err != nil {
			t.Fatal(err)
		}
		if err := e.EncodeBitsRange(x, 0, e.OutDim, bits); err != nil {
			t.Fatal(err)
		}
		if err := stack.EncodeInto(x, dst); err != nil {
			t.Fatal(err)
		}
		if err := stack.EncodeBits(x, stackBits); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm single-row seeded encode allocates %v times", allocs)
	}
}

// TestHealIntactPlaneZeroAlloc: checking an intact plane walks its
// regeneration and allocates nothing.
func TestHealIntactPlaneZeroAlloc(t *testing.T) {
	e, err := NewSeeded(36, 1000, Nonlinear, 1)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if bad := e.Heal(); bad != nil {
			t.Fatalf("intact plane reported %v", bad)
		}
	})
	if allocs != 0 {
		t.Fatalf("Heal on an intact plane allocates %v times", allocs)
	}
}
