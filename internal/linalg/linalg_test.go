package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewMatrixPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for zero dimension")
		}
	}()
	NewMatrix(0, 3)
}

func TestFromRows(t *testing.T) {
	m, err := FromRows([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(1, 0) != 3 || m.At(0, 1) != 2 {
		t.Errorf("unexpected contents: %+v", m)
	}
	if _, err := FromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Error("expected ragged-row error")
	}
	if _, err := FromRows(nil); err == nil {
		t.Error("expected empty error")
	}
}

func TestTranspose(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	mt := m.T()
	if mt.Rows != 3 || mt.Cols != 2 {
		t.Fatalf("transpose shape = %dx%d", mt.Rows, mt.Cols)
	}
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if m.At(i, j) != mt.At(j, i) {
				t.Fatalf("T mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestMul(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := FromRows([][]float64{{5, 6}, {7, 8}})
	c, err := Mul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{19, 22}, {43, 50}}
	for i := range want {
		for j := range want[i] {
			if !almostEq(c.At(i, j), want[i][j], 1e-12) {
				t.Errorf("c(%d,%d) = %v, want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
	if _, err := Mul(a, NewMatrix(3, 2)); err == nil {
		t.Error("expected dimension error")
	}
}

func TestMulVec(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	y, err := m.MulVec([]float64{1, 0, -1})
	if err != nil {
		t.Fatal(err)
	}
	if y[0] != -2 || y[1] != -2 {
		t.Errorf("MulVec = %v, want [-2 -2]", y)
	}
	if _, err := m.MulVec([]float64{1}); err == nil {
		t.Error("expected length error")
	}
}

func TestGramMatchesMul(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewMatrix(7, 4)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	g := m.Gram()
	g2, err := Mul(m.T(), m)
	if err != nil {
		t.Fatal(err)
	}
	for i := range g.Data {
		if !almostEq(g.Data[i], g2.Data[i], 1e-10) {
			t.Fatalf("Gram mismatch at %d: %v vs %v", i, g.Data[i], g2.Data[i])
		}
	}
}

func TestDotAndNorms(t *testing.T) {
	if Dot([]float64{1, 2}, []float64{3, 4}) != 11 {
		t.Error("Dot failed")
	}
	if !almostEq(Norm2([]float64{3, 4}), 5, 1e-12) {
		t.Error("Norm2 failed")
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic on dot length mismatch")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestCosineSim(t *testing.T) {
	if !almostEq(CosineSim([]float64{1, 0}, []float64{1, 0}), 1, 1e-12) {
		t.Error("identical vectors should have similarity 1")
	}
	if !almostEq(CosineSim([]float64{1, 0}, []float64{0, 1}), 0, 1e-12) {
		t.Error("orthogonal vectors should have similarity 0")
	}
	if !almostEq(CosineSim([]float64{1, 0}, []float64{-2, 0}), -1, 1e-12) {
		t.Error("opposite vectors should have similarity -1")
	}
	if CosineSim([]float64{0, 0}, []float64{1, 1}) != 0 {
		t.Error("zero vector should give similarity 0")
	}
}

func TestScaleAdd(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2}})
	m.Scale(3)
	if m.At(0, 1) != 6 {
		t.Error("Scale failed")
	}
	b, _ := FromRows([][]float64{{1, 1}})
	if err := m.Add(b); err != nil {
		t.Fatal(err)
	}
	if m.At(0, 0) != 4 {
		t.Error("Add failed")
	}
	if err := m.Add(NewMatrix(2, 2)); err == nil {
		t.Error("expected shape error")
	}
}

func TestSingularValuesKnown(t *testing.T) {
	// diag(3, 2) embedded in a rectangular matrix.
	m, _ := FromRows([][]float64{
		{3, 0},
		{0, 2},
		{0, 0},
	})
	sv := SingularValues(m)
	if len(sv) != 2 {
		t.Fatalf("len(sv) = %d, want 2", len(sv))
	}
	if !almostEq(sv[0], 3, 1e-9) || !almostEq(sv[1], 2, 1e-9) {
		t.Errorf("sv = %v, want [3 2]", sv)
	}
}

func TestSingularValuesWideMatrix(t *testing.T) {
	// Wide matrices are transposed internally; singular values must agree.
	m, _ := FromRows([][]float64{
		{1, 2, 3, 4},
		{5, 6, 7, 8},
	})
	svWide := SingularValues(m)
	svTall := SingularValues(m.T())
	if len(svWide) != 2 || len(svTall) != 2 {
		t.Fatalf("unexpected lengths %d, %d", len(svWide), len(svTall))
	}
	for i := range svWide {
		if !almostEq(svWide[i], svTall[i], 1e-9) {
			t.Errorf("sv[%d]: wide %v != tall %v", i, svWide[i], svTall[i])
		}
	}
}

func TestSVDFrobeniusIdentity(t *testing.T) {
	// ||A||_F^2 == sum of squared singular values.
	rng := rand.New(rand.NewSource(7))
	m := NewMatrix(12, 5)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	sv := SingularValues(m)
	var ss float64
	for _, s := range sv {
		ss += s * s
	}
	fr := m.FrobeniusNorm()
	if !almostEq(ss, fr*fr, 1e-8) {
		t.Errorf("sum sv^2 = %v, ||A||_F^2 = %v", ss, fr*fr)
	}
}

func TestRank(t *testing.T) {
	// Rank-1 matrix: outer product.
	m := NewMatrix(4, 4)
	u := []float64{1, 2, 3, 4}
	v := []float64{2, -1, 0.5, 1}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			m.Set(i, j, u[i]*v[j])
		}
	}
	if r := Rank(m, 0); r != 1 {
		t.Errorf("rank = %d, want 1", r)
	}
	// Identity has full rank.
	id := NewMatrix(5, 5)
	for i := 0; i < 5; i++ {
		id.Set(i, i, 1)
	}
	if r := Rank(id, 0); r != 5 {
		t.Errorf("rank = %d, want 5", r)
	}
	if r := Rank(NewMatrix(3, 3), 0); r != 0 {
		t.Errorf("rank of zero matrix = %d, want 0", r)
	}
}

func TestSymEigenKnown(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1.
	m, _ := FromRows([][]float64{{2, 1}, {1, 2}})
	ev := SymEigen(m)
	if !almostEq(ev[0], 3, 1e-9) || !almostEq(ev[1], 1, 1e-9) {
		t.Errorf("eigenvalues = %v, want [3 1]", ev)
	}
}

func TestSymEigenTraceInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 8
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64()
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
	var trace float64
	for i := 0; i < n; i++ {
		trace += m.At(i, i)
	}
	ev := SymEigen(m)
	var sum float64
	for _, e := range ev {
		sum += e
	}
	if !almostEq(trace, sum, 1e-8) {
		t.Errorf("trace %v != eigenvalue sum %v", trace, sum)
	}
}

func TestEigenMatchesSingularValuesOnGram(t *testing.T) {
	// For Gram matrix G = AᵀA, eigenvalues are squared singular values of A.
	rng := rand.New(rand.NewSource(11))
	a := NewMatrix(10, 4)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	sv := SingularValues(a)
	ev := SymEigen(a.Gram())
	for i := range sv {
		if !almostEq(sv[i]*sv[i], ev[i], 1e-7) {
			t.Errorf("sv[%d]^2 = %v != eigen %v", i, sv[i]*sv[i], ev[i])
		}
	}
}

// Property: cosine similarity is always in [-1, 1].
func TestCosineBoundsQuick(t *testing.T) {
	f := func(a, b [8]float64) bool {
		av, bv := a[:], b[:]
		for i := range av {
			if math.IsNaN(av[i]) || math.IsInf(av[i], 0) {
				av[i] = 0
			}
			if math.IsNaN(bv[i]) || math.IsInf(bv[i], 0) {
				bv[i] = 0
			}
			// Clamp magnitudes so the dot product cannot overflow.
			av[i] = math.Mod(av[i], 1e6)
			bv[i] = math.Mod(bv[i], 1e6)
		}
		c := CosineSim(av, bv)
		return c >= -1-1e-9 && c <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: singular values are non-negative and sorted descending.
func TestSingularValuesSortedQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		rows := 2 + rng.Intn(8)
		cols := 2 + rng.Intn(8)
		m := NewMatrix(rows, cols)
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
		}
		sv := SingularValues(m)
		for i := range sv {
			if sv[i] < 0 {
				t.Fatalf("negative singular value %v", sv[i])
			}
			if i > 0 && sv[i] > sv[i-1]+1e-12 {
				t.Fatalf("unsorted singular values %v", sv)
			}
		}
	}
}

// The products, norms and the symmetric eigensolver below round out the
// matrix kernel the tests check. The random-matrix analysis and the span
// metric need only NewMatrix, Row, T, SingularValues and Rank, so the
// rest lives beside its tests.

// FromRows builds a matrix from a slice of equally sized rows.
func FromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 || len(rows[0]) == 0 {
		return nil, fmt.Errorf("linalg: empty rows")
	}
	c := len(rows[0])
	m := NewMatrix(len(rows), c)
	for i, r := range rows {
		if len(r) != c {
			return nil, fmt.Errorf("linalg: ragged row %d: len %d != %d", i, len(r), c)
		}
		copy(m.Data[i*c:(i+1)*c], r)
	}
	return m, nil
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Mul returns a*b. It returns an error on inner-dimension mismatch.
func Mul(a, b *Matrix) (*Matrix, error) {
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("linalg: dimension mismatch %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	out := NewMatrix(a.Rows, b.Cols)
	// ikj loop order keeps the inner loop contiguous in both b and out.
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		orow := out.Data[i*out.Cols : (i+1)*out.Cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out, nil
}

// MulVec returns m*x for a column vector x.
func (m *Matrix) MulVec(x []float64) ([]float64, error) {
	if len(x) != m.Cols {
		return nil, fmt.Errorf("linalg: vector length %d != cols %d", len(x), m.Cols)
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out, nil
}

// Gram returns mᵀm (the Cols x Cols Gram matrix).
func (m *Matrix) Gram() *Matrix {
	out := NewMatrix(m.Cols, m.Cols)
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		for i, vi := range row {
			if vi == 0 {
				continue
			}
			orow := out.Data[i*m.Cols : (i+1)*m.Cols]
			for j, vj := range row {
				orow[j] += vi * vj
			}
		}
	}
	return out
}

// Dot returns the inner product of two equally long vectors.
// It panics on length mismatch: callers control both operands.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: dot length mismatch %d != %d", len(a), len(b)))
	}
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// CosineSim returns the cosine similarity of a and b, the paper's Eq. 1.
// Zero vectors yield similarity 0.
func CosineSim(a, b []float64) float64 {
	na, nb := Norm2(a), Norm2(b)
	if na == 0 || nb == 0 {
		return 0
	}
	return Dot(a, b) / (na * nb)
}

// Scale multiplies every element of m by s in place.
func (m *Matrix) Scale(s float64) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// Add accumulates b into m in place. It returns an error on shape mismatch.
func (m *Matrix) Add(b *Matrix) error {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		return fmt.Errorf("linalg: add shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, b.Rows, b.Cols)
	}
	for i, v := range b.Data {
		m.Data[i] += v
	}
	return nil
}

// FrobeniusNorm returns sqrt(sum of squared entries).
func (m *Matrix) FrobeniusNorm() float64 { return Norm2(m.Data) }

// SymEigen returns the eigenvalues of a symmetric matrix in descending
// order using the classical (two-sided) Jacobi rotation method. Only the
// lower/upper symmetric part consistent with a is used; a is not modified.
func SymEigen(a *Matrix) []float64 {
	n := a.Rows
	w := a.Clone()
	for sweep := 0; sweep < svdMaxSweeps; sweep++ {
		// Sum of squares of off-diagonal entries.
		var off float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				v := w.At(i, j)
				off += v * v
			}
		}
		if off < 1e-24 {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.At(p, q)
				if math.Abs(apq) < 1e-15 {
					continue
				}
				app, aqq := w.At(p, p), w.At(q, q)
				theta := (aqq - app) / (2 * apq)
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(1+theta*theta))
				c := 1 / math.Sqrt(1+t*t)
				s := c * t
				for k := 0; k < n; k++ {
					akp, akq := w.At(k, p), w.At(k, q)
					w.Set(k, p, c*akp-s*akq)
					w.Set(k, q, s*akp+c*akq)
				}
				for k := 0; k < n; k++ {
					apk, aqk := w.At(p, k), w.At(q, k)
					w.Set(p, k, c*apk-s*aqk)
					w.Set(q, k, s*apk+c*aqk)
				}
			}
		}
	}
	ev := make([]float64, n)
	for i := 0; i < n; i++ {
		ev[i] = w.At(i, i)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(ev)))
	return ev
}
