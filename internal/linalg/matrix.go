// Package linalg implements the small dense linear-algebra kernel the
// BoostHD reproduction needs: row-major matrices, a one-sided Jacobi SVD
// and numerical rank. The random-matrix analysis (Figures 2, 4) and the
// span-utilization metric (Figure 5) are built on these routines.
package linalg

import "fmt"

// Matrix is a dense row-major matrix of float64 values.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewMatrix allocates a zeroed rows x cols matrix.
// It panics if either dimension is not positive.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linalg: invalid dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Row returns a view (not a copy) of row i. The aliasing is the method's
// contract: callers fill rows in place, and Matrix carries no
// synchronization to be bypassed.
//
//hdlint:ignore snapshotalias Row is a documented in-place view of an unsynchronized math type
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// T returns the transpose of m as a new matrix.
func (m *Matrix) T() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		base := i * m.Cols
		for j := 0; j < m.Cols; j++ {
			out.Data[j*m.Rows+i] = m.Data[base+j]
		}
	}
	return out
}
