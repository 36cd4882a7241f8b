package randmat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestEigenBounds(t *testing.T) {
	lo, hi := EigenBounds(0.25, 1)
	if !almostEq(lo, 0.25, 1e-12) { // (1-0.5)^2
		t.Errorf("lo = %v, want 0.25", lo)
	}
	if !almostEq(hi, 2.25, 1e-12) { // (1+0.5)^2
		t.Errorf("hi = %v, want 2.25", hi)
	}
	// sigma scales quadratically for eigenvalues.
	lo2, hi2 := EigenBounds(0.25, 2)
	if !almostEq(lo2, 4*lo, 1e-12) || !almostEq(hi2, 4*hi, 1e-12) {
		t.Errorf("sigma scaling broken: (%v,%v)", lo2, hi2)
	}
}

func TestSingularBounds(t *testing.T) {
	lo, hi := SingularBounds(0.25, 1)
	if !almostEq(lo, 0.5, 1e-12) || !almostEq(hi, 1.5, 1e-12) {
		t.Errorf("bounds = (%v,%v), want (0.5,1.5)", lo, hi)
	}
	// q > 1 uses |1-sqrt(q)|, keeping the bound non-negative.
	lo, _ = SingularBounds(4, 1)
	if !almostEq(lo, 1, 1e-12) {
		t.Errorf("lo(q=4) = %v, want 1", lo)
	}
}

func TestBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for q <= 0")
		}
	}()
	EigenBounds(0, 1)
}

func TestDensityIntegratesToMass(t *testing.T) {
	// For q <= 1 the continuous density integrates to 1.
	for _, q := range []float64{0.1, 0.5, 0.9} {
		lo, hi := EigenBounds(q, 1)
		mass := simpson(func(l float64) float64 { return Density(l, q, 1) }, lo, hi, 4000)
		if !almostEq(mass, 1, 1e-3) {
			t.Errorf("q=%v: density mass = %v, want 1", q, mass)
		}
	}
	// For q > 1 the continuous part carries mass 1/q.
	q := 2.0
	lo, hi := EigenBounds(q, 1)
	mass := simpson(func(l float64) float64 { return Density(l, q, 1) }, lo, hi, 4000)
	if !almostEq(mass, 0.5, 1e-3) {
		t.Errorf("q=2: density mass = %v, want 0.5", mass)
	}
}

func TestDensityZeroOutsideSupport(t *testing.T) {
	lo, hi := EigenBounds(0.5, 1)
	if Density(lo-0.01, 0.5, 1) != 0 || Density(hi+0.01, 0.5, 1) != 0 {
		t.Error("density must vanish outside the MP support")
	}
	if Density(-1, 0.5, 1) != 0 {
		t.Error("density must vanish for negative lambda")
	}
}

func TestMeanEigenTraceIdentity(t *testing.T) {
	// The mean of the continuous MP part is sigma^2 for q <= 1.
	for _, q := range []float64{0.2, 0.6, 0.95} {
		m := MeanEigen(q, 1)
		if !almostEq(m, 1, 5e-3) {
			t.Errorf("q=%v: mean eigen = %v, want 1", q, m)
		}
	}
}

func TestVarEigenClosedForm(t *testing.T) {
	// Var of MP eigenvalues is q*sigma^4 for q <= 1.
	for _, q := range []float64{0.2, 0.5} {
		v := VarEigen(q, 1)
		if !almostEq(v, q, 2e-2*q+5e-3) {
			t.Errorf("q=%v: var = %v, want %v", q, v, q)
		}
	}
}

func TestPaperTermsDecay(t *testing.T) {
	// Figure 2: each term settles ("converges to a specific value and
	// experiences minimal fluctuations") as q grows.
	for _, fn := range []func(q, sigma float64) float64{T1, T3} {
		v10, v50, v100 := fn(10, 1), fn(50, 1), fn(100, 1)
		if math.Abs(v50) > math.Abs(v10) || math.Abs(v100) > math.Abs(v50) {
			t.Errorf("term magnitude not decaying: %v %v %v", v10, v50, v100)
		}
	}
	// T2 is negative and also decays in magnitude.
	if T2(10, 1) >= 0 {
		t.Error("T2 should be negative")
	}
	if math.Abs(T2(100, 1)) > math.Abs(T2(10, 1)) {
		t.Error("|T2| should decay with q")
	}
}

func TestT1KnownValue(t *testing.T) {
	// For sigma=1, q<=1: hi^2-lo^2 = (1+r)^2-(1-r)^2 = 4r, so T1 = 4/sqrt(q).
	if got := T1(0.25, 1); !almostEq(got, 8, 1e-12) {
		t.Errorf("T1(0.25) = %v, want 8", got)
	}
	if got := T1(1e-2, 1); !almostEq(got, 40, 1e-9) {
		t.Errorf("T1(0.01) = %v, want 40", got)
	}
}

func TestT3DivergesAtQ1(t *testing.T) {
	if !math.IsInf(T3(1, 1), 1) {
		t.Error("T3 must diverge at q=1 where lambdaMin=0")
	}
}

func TestPaperSigma2Finite(t *testing.T) {
	for _, q := range []float64{0.5, 2, 10, 100} {
		v := PaperSigma2(q, 1)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("PaperSigma2(%v) = %v", q, v)
		}
	}
}

func TestAxisRatioApproachesUnity(t *testing.T) {
	// Larger D means smaller q means rounder kernel (Eq. 7 discussion).
	r1 := AxisRatio(0.5, 1)
	r2 := AxisRatio(0.05, 1)
	r3 := AxisRatio(0.005, 1)
	if !(r3 > r2 && r2 > r1) {
		t.Errorf("axis ratio should increase as q shrinks: %v %v %v", r1, r2, r3)
	}
	if r3 < 0.85 {
		t.Errorf("axis ratio at q=0.005 should be near 1, got %v", r3)
	}
}

func TestEmpiricalSingularValuesWithinBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	nr, nc := 400, 100 // q = 0.25
	sv, err := EmpiricalSingularValues(nr, nc, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(sv) != nc {
		t.Fatalf("want %d singular values, got %d", nc, len(sv))
	}
	lo, hi := SingularBounds(0.25, 1)
	// Finite-size fluctuations scale like nr^{-2/3}; allow 10% slack.
	slack := 0.1
	if sv[0] > hi*(1+slack) {
		t.Errorf("max sv %v exceeds MP bound %v", sv[0], hi)
	}
	if sv[len(sv)-1] < lo*(1-slack)-0.05 {
		t.Errorf("min sv %v below MP bound %v", sv[len(sv)-1], lo)
	}
}

func TestEmpiricalAxisRatioTracksTheory(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// q = 100/1000 = 0.1
	emp, err := EmpiricalAxisRatio(1000, 100, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	theory := AxisRatio(0.1, 1)
	if math.Abs(emp-theory) > 0.1 {
		t.Errorf("empirical ratio %v far from theory %v", emp, theory)
	}
}

func TestEmpiricalErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := EmpiricalSingularValues(0, 5, 1, rng); err == nil {
		t.Error("expected shape error")
	}
	if _, err := EmpiricalAxisRatio(-1, 5, 1, rng); err == nil {
		t.Error("expected shape error")
	}
}

func TestTermCurve(t *testing.T) {
	qs, vals := TermCurve(T1, 1, 0.1, 100, 50)
	if len(qs) != 50 || len(vals) != 50 {
		t.Fatalf("lengths = %d, %d", len(qs), len(vals))
	}
	if !almostEq(qs[0], 0.1, 1e-9) || !almostEq(qs[49], 100, 1e-6) {
		t.Errorf("grid endpoints = %v, %v", qs[0], qs[49])
	}
	for i := 1; i < len(qs); i++ {
		if qs[i] <= qs[i-1] {
			t.Fatal("grid not increasing")
		}
	}
	if qs2, _ := TermCurve(T1, 1, -1, 10, 5); qs2 != nil {
		t.Error("invalid range should return nil")
	}
	if qs3, _ := TermCurve(T1, 1, 1, 10, 1); qs3 != nil {
		t.Error("n < 2 should return nil")
	}
}

// Property: the axis ratio is always within [0, 1].
func TestAxisRatioBoundsQuick(t *testing.T) {
	f := func(raw float64) bool {
		q := math.Abs(math.Mod(raw, 1000))
		if q == 0 || math.IsNaN(q) {
			q = 0.5
		}
		r := AxisRatio(q, 1)
		return r >= 0 && r <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: MP bounds always satisfy lo <= hi and lo >= 0.
func TestBoundsOrderedQuick(t *testing.T) {
	f := func(rawQ, rawS float64) bool {
		q := math.Abs(math.Mod(rawQ, 100))
		s := math.Abs(math.Mod(rawS, 10))
		if q == 0 || math.IsNaN(q) {
			q = 1
		}
		if s == 0 || math.IsNaN(s) {
			s = 1
		}
		lo1, hi1 := EigenBounds(q, s)
		lo2, hi2 := SingularBounds(q, s)
		return lo1 >= 0 && lo1 <= hi1 && lo2 >= 0 && lo2 <= hi2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// The eigenvalue-side theory below (bounds, density and its moments) and
// the term sampler are the tests' cross-checks on the singular-value
// functions the figure experiments call.

// EigenBounds returns the Marchenko-Pastur support endpoints for the
// eigenvalues of the sample covariance matrix (1/Nr) X^T X:
// lambda± = sigma^2 (1 ± sqrt(q))^2. It panics for non-positive q or sigma,
// which indicate a programming error in the caller.
func EigenBounds(q, sigma float64) (lo, hi float64) {
	mustPositive(q, sigma)
	r := math.Sqrt(q)
	lo = sigma * sigma * (1 - r) * (1 - r)
	hi = sigma * sigma * (1 + r) * (1 + r)
	return lo, hi
}

// Density evaluates the Marchenko-Pastur eigenvalue density at lambda for
// aspect ratio q and entry scale sigma. Outside the support it returns 0.
// For q > 1 the distribution also carries a point mass 1 - 1/q at zero,
// which this continuous density does not include.
func Density(lambda, q, sigma float64) float64 {
	lo, hi := EigenBounds(q, sigma)
	if lambda <= lo || lambda >= hi || lambda <= 0 {
		return 0
	}
	return math.Sqrt((hi-lambda)*(lambda-lo)) / (2 * math.Pi * sigma * sigma * q * lambda)
}

// MeanEigen numerically integrates lambda * f(lambda) over the MP support.
// For any q it equals sigma^2 (trace identity), a property the tests use
// to validate the integrator.
func MeanEigen(q, sigma float64) float64 {
	lo, hi := EigenBounds(q, sigma)
	return simpson(func(l float64) float64 { return l * Density(l, q, sigma) }, lo, hi, 4000)
}

// VarEigen numerically integrates (lambda-mu)^2 f(lambda) over the support
// using mu = MeanEigen. The closed form for q <= 1 is q*sigma^4.
func VarEigen(q, sigma float64) float64 {
	lo, hi := EigenBounds(q, sigma)
	mu := MeanEigen(q, sigma)
	return simpson(func(l float64) float64 {
		d := l - mu
		return d * d * Density(l, q, sigma)
	}, lo, hi, 4000)
}

// TermCurve samples fn on a logarithmically dense grid of n points over
// [qMin, qMax], returning parallel slices of q values and term values.
// It is the workhorse behind the Figure 2 reproduction.
func TermCurve(fn func(q, sigma float64) float64, sigma, qMin, qMax float64, n int) (qs, vals []float64) {
	if n < 2 || qMin <= 0 || qMax <= qMin {
		return nil, nil
	}
	qs = make([]float64, n)
	vals = make([]float64, n)
	logMin, logMax := math.Log(qMin), math.Log(qMax)
	for i := 0; i < n; i++ {
		q := math.Exp(logMin + (logMax-logMin)*float64(i)/float64(n-1))
		qs[i] = q
		vals[i] = fn(q, sigma)
	}
	return qs, vals
}

// simpson integrates f over [a, b] with n (rounded up to even) panels.
func simpson(f func(float64) float64, a, b float64, n int) float64 {
	if b <= a {
		return 0
	}
	if n%2 == 1 {
		n++
	}
	h := (b - a) / float64(n)
	sum := f(a) + f(b)
	for i := 1; i < n; i++ {
		x := a + float64(i)*h
		if i%2 == 1 {
			sum += 4 * f(x)
		} else {
			sum += 2 * f(x)
		}
	}
	return sum * h / 3
}
