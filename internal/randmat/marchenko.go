// Package randmat implements the random-matrix theory the paper uses to
// analyze hyperdimensional kernel geometry (Section III, Eqs. 2-7,
// Figures 2 and 4): Marchenko-Pastur singular-value bounds, the paper's
// mean/variance approximations with their T1/T2/T3 terms, the
// minor/major axis ratio of the transformed kernel, and empirical spectra
// of Gaussian encoder matrices for cross-checking theory against samples.
//
// Conventions. For an Nr x Nc matrix with i.i.d. N(0, sigma^2) entries the
// aspect ratio is q = Nc/Nr (the paper's definition; Nr plays the role of
// the hyperdimension D, so q shrinks as D grows). Eigenvalues of the
// sample covariance (1/Nr) X^T X concentrate in [sigma^2 (1-sqrt(q))^2,
// sigma^2 (1+sqrt(q))^2]; the corresponding singular values of X/sqrt(Nr)
// lie in [sigma |1-sqrt(q)|, sigma (1+sqrt(q))]. The paper's Eqs. 2-7
// treat lambda as a singular value; its T terms reproduce Figure 2 under
// that convention, so the Paper* functions use it too.
package randmat

import (
	"fmt"
	"math"
	"math/rand"

	"boosthd/internal/linalg"
)

// SingularBounds returns the support endpoints for the singular values of
// X/sqrt(Nr): sigma*|1-sqrt(q)| and sigma*(1+sqrt(q)).
func SingularBounds(q, sigma float64) (lo, hi float64) {
	mustPositive(q, sigma)
	r := math.Sqrt(q)
	return sigma * math.Abs(1-r), sigma * (1 + r)
}

// PaperMu evaluates the paper's Eq. 2 approximation of the mean singular
// value: mu_lambda ~ (1/(3*pi*q)) * (lambdaMax - lambdaMin)^(3/2).
func PaperMu(q, sigma float64) float64 {
	lo, hi := SingularBounds(q, sigma)
	return math.Pow(hi-lo, 1.5) / (3 * math.Pi * q)
}

// T1 is the first term of the paper's Eq. 3 variance expansion, as defined
// in Eq. 4: (1/q) * (lambdaMax^2 - lambdaMin^2). Under the singular-value
// convention this is 4*sigma^2/sqrt(q) for q <= 1, which decays toward the
// constant limit shown in Figure 2.
func T1(q, sigma float64) float64 {
	lo, hi := SingularBounds(q, sigma)
	return (hi*hi - lo*lo) / q
}

// T2 is the second term (Eq. 5): (1/q) * (-2*mu*(lambdaMax - lambdaMin)).
func T2(q, sigma float64) float64 {
	lo, hi := SingularBounds(q, sigma)
	return -2 * PaperMu(q, sigma) * (hi - lo) / q
}

// T3 is the third term (Eq. 6): (1/q) * mu^2 * (ln|lambdaMax| - ln|lambdaMin|).
// At q = 1 the lower bound is 0 and the logarithm diverges; callers sweep
// q on grids that avoid exactly 1, mirroring the paper's Figure 2.
func T3(q, sigma float64) float64 {
	lo, hi := SingularBounds(q, sigma)
	if lo == 0 {
		return math.Inf(1)
	}
	mu := PaperMu(q, sigma)
	return mu * mu * (math.Log(math.Abs(hi)) - math.Log(math.Abs(lo))) / q
}

// PaperSigma2 evaluates the paper's Eq. 3: the variance approximation
// sigma_lambda^2 ~ (1/(2*pi*sigma^2)) * (T1/2 + T2 + T3) with the T terms
// of Eqs. 4-6 (each already carrying its 1/q factor).
func PaperSigma2(q, sigma float64) float64 {
	return (0.5*T1(q, sigma) + T2(q, sigma) + T3(q, sigma)) / (2 * math.Pi * sigma * sigma)
}

// AxisRatio returns the minor/major axis ratio A_S/A_L of the kernel's
// spectral ellipse: lambdaMin/lambdaMax in the singular-value convention.
// As D grows (q -> 0) the ratio approaches 1 and the kernel becomes the
// "broadly distributed circular shape" of Figure 4(b); small D (large q)
// keeps it elliptical.
func AxisRatio(q, sigma float64) float64 {
	lo, hi := SingularBounds(q, sigma)
	if hi == 0 {
		return 0
	}
	return lo / hi
}

// EmpiricalSingularValues draws an Nr x Nc matrix with i.i.d. N(0, sigma^2)
// entries, scales it by 1/sqrt(Nr), and returns its singular values in
// descending order.
func EmpiricalSingularValues(nr, nc int, sigma float64, rng *rand.Rand) ([]float64, error) {
	if nr <= 0 || nc <= 0 {
		return nil, fmt.Errorf("randmat: invalid shape %dx%d", nr, nc)
	}
	m := linalg.NewMatrix(nr, nc)
	scale := sigma / math.Sqrt(float64(nr))
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64() * scale
	}
	return linalg.SingularValues(m), nil
}

// EmpiricalAxisRatio returns min/max of the empirical singular spectrum of
// a random Nr x Nc Gaussian matrix, the sampled counterpart of AxisRatio.
func EmpiricalAxisRatio(nr, nc int, sigma float64, rng *rand.Rand) (float64, error) {
	sv, err := EmpiricalSingularValues(nr, nc, sigma, rng)
	if err != nil {
		return 0, err
	}
	if sv[0] == 0 {
		return 0, nil
	}
	return sv[len(sv)-1] / sv[0], nil
}

func mustPositive(q, sigma float64) {
	if q <= 0 || sigma <= 0 {
		panic(fmt.Sprintf("randmat: q and sigma must be positive, got q=%v sigma=%v", q, sigma))
	}
}
