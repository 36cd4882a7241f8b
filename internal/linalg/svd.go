package linalg

import (
	"math"
	"sort"
)

// svdMaxSweeps bounds the number of one-sided Jacobi sweeps. The method
// converges quadratically; 60 sweeps is far beyond what well-conditioned
// kernel matrices of the sizes used here (≤ a few thousand) require.
const svdMaxSweeps = 60

// SingularValues returns the singular values of m in descending order,
// computed with a one-sided Jacobi iteration on the wider-dimension
// transpose so the working matrix is always tall.
func SingularValues(m *Matrix) []float64 {
	a := m
	if a.Rows < a.Cols {
		a = m.T()
	}
	work := a.Clone()
	n := work.Cols
	rows := work.Rows

	// One-sided Jacobi: orthogonalize column pairs (p, q) with Givens
	// rotations until all pairs are numerically orthogonal.
	eps := 1e-12
	for sweep := 0; sweep < svdMaxSweeps; sweep++ {
		off := 0.0
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				var alpha, beta, gamma float64
				for i := 0; i < rows; i++ {
					ip, iq := work.Data[i*n+p], work.Data[i*n+q]
					alpha += ip * ip
					beta += iq * iq
					gamma += ip * iq
				}
				if alpha == 0 || beta == 0 {
					continue
				}
				if math.Abs(gamma) <= eps*math.Sqrt(alpha*beta) {
					continue
				}
				off += gamma * gamma
				zeta := (beta - alpha) / (2 * gamma)
				t := math.Copysign(1, zeta) / (math.Abs(zeta) + math.Sqrt(1+zeta*zeta))
				c := 1 / math.Sqrt(1+t*t)
				s := c * t
				for i := 0; i < rows; i++ {
					ip, iq := work.Data[i*n+p], work.Data[i*n+q]
					work.Data[i*n+p] = c*ip - s*iq
					work.Data[i*n+q] = s*ip + c*iq
				}
			}
		}
		if off == 0 {
			break
		}
	}

	sv := make([]float64, n)
	for j := 0; j < n; j++ {
		var s float64
		for i := 0; i < rows; i++ {
			v := work.Data[i*n+j]
			s += v * v
		}
		sv[j] = math.Sqrt(s)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(sv)))
	return sv
}

// Rank returns the numerical rank of m: the number of singular values
// exceeding tol * max(singular value). A non-positive tol selects the
// conventional machine-precision threshold max(Rows, Cols) * eps.
func Rank(m *Matrix, tol float64) int {
	sv := SingularValues(m)
	if len(sv) == 0 || sv[0] == 0 {
		return 0
	}
	if tol <= 0 {
		dim := m.Rows
		if m.Cols > dim {
			dim = m.Cols
		}
		tol = float64(dim) * 2.220446049250313e-16
	}
	thresh := tol * sv[0]
	r := 0
	for _, s := range sv {
		if s > thresh {
			r++
		}
	}
	return r
}
