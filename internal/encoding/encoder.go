// Package encoding maps feature vectors into hyperdimensional space.
//
// The primary encoder is the OnlineHD-style nonlinear projection the paper
// builds on: each output component is a trigonometric activation of a
// Gaussian random projection, h_j = cos(<w_j, x> + b_j) * sin(<w_j, x>)
// with w_j ~ N(0,1)^F and b_j ~ U[0, 2*pi). A plain random-Fourier-feature
// variant (cos only) and a linear projection are provided for ablations.
// An ID-level record encoder for symbolic/classic HDC pipelines completes
// the set.
//
// Every entry point, single-row or batch, lone encoder or Stack, runs
// one of two blocked kernels: a float kernel, and a sign-only kernel for
// the packed-binary backend that skips the trigonometric evaluation
// entirely. Both sweep the projection in tiles of 256 components and
// write into caller-owned buffers. Only the projection step depends on
// the mode (see Projection): a GEMM over a stored matrix, or table
// lookups indexed by the sign bytes of a seeded encoder's plane. The
// float kernel sums float tables built once per row block for every
// part of a stack, and its activation step is shared by both modes. The
// sign kernel reads a trigonometric component's sign off its phase held
// as a wrapping 32-bit count of 2^-32 turns: a seeded part sums integer
// turn tables built per part and row, a stored part converts its GEMM
// output to turns once per component, and both share the sign rule.
package encoding

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"boosthd/internal/hdc"
)

// Kind selects the activation applied to the random projection.
type Kind int

const (
	// Nonlinear is the OnlineHD encoder: cos(wx+b)*sin(wx).
	Nonlinear Kind = iota
	// RFF is the random-Fourier-feature encoder: cos(wx+b).
	RFF
	// Linear applies no activation: the raw Gaussian projection.
	Linear
)

// String names the encoder kind.
func (k Kind) String() string {
	switch k {
	case Nonlinear:
		return "nonlinear"
	case RFF:
		return "rff"
	case Linear:
		return "linear"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Encoder projects InDim-dimensional features into an OutDim-dimensional
// hyperspace. Construction is deterministic in the seed, so BoostHD
// ensembles and repeated evaluation runs share identical spaces.
//
// Gamma is the kernel bandwidth applied to every projection before the
// trigonometric activation: h_j = act(Gamma * <w_j, x>). For standardized
// (z-scored) features the dot product has variance ~InDim, so the default
// Gamma = 1/sqrt(InDim) keeps the phase spread O(1) regardless of the
// feature width — without it, wide inputs wrap the activations many times
// around the circle and nearby points decorrelate.
type Encoder struct {
	InDim  int
	OutDim int
	Kind   Kind
	Gamma  float64

	// w is the stored OutDim x InDim projection, row-major. It is nil on
	// a seeded encoder, whose projection signs and phases come from the
	// counter streams rooted at wBase and bBase; wpr is the number of
	// 64-bit sign words per row, ceil(InDim/64).
	w            []float64
	wBase, bBase uint64
	wpr          int

	// plane is the row-independent state every kernel call loads once
	// and reads in place. Writers (InjectFaults, Heal) swap whole planes
	// under mu, so a call in flight finishes on the plane it loaded.
	plane atomic.Pointer[plane]
	mu    sync.Mutex
}

// plane is an encoder's row-independent state: the phases b_j, in
// radians for the float kernel and in bt as wrapping 32-bit counts of
// 2^-32 turn for the sign kernel; for Nonlinear, hsb_j = 0.5*sin(b_j),
// the constant of the product-to-sum form cos(d+b)*sin(d) = 0.5*sin(2d+b)
// - 0.5*sin(b), which costs one trigonometric evaluation per component
// instead of two; and, on a seeded encoder, every component's sign words
// split into lookup-group byte indexes, group-major: idx[g*OutDim+j] is
// byte g%8 of sign word g/8 of component j with its bits past InDim
// cleared, and indexes table g. A seeded plane is never persisted: it is
// rebuilt from the stream roots at construction and checked against them
// by Heal.
type plane struct {
	idx    []uint8
	b, hsb []float64
	bt     []uint32
}

// phasePlane returns a plane holding phases b and bt and, for Nonlinear,
// the half sines of b.
func (e *Encoder) phasePlane(b []float64, bt []uint32) *plane {
	p := &plane{b: b, bt: bt}
	if e.Kind == Nonlinear {
		p.hsb = make([]float64, len(b))
		for j, bj := range b {
			p.hsb[j] = 0.5 * math.Sin(bj)
		}
	}
	return p
}

// tile returns views of the plane's phases and, for Nonlinear, half
// sines of components [j0,j1).
//
//hd:hotpath
func (p *plane) tile(j0, j1 int) (b, hsb []float64) {
	if p.hsb != nil {
		hsb = p.hsb[j0:j1]
	}
	return p.b[j0:j1], hsb
}

// DefaultGamma returns the default kernel bandwidth for inDim features:
// 0.25/sqrt(inDim). The 1/sqrt(inDim) factor keeps the projection phase
// O(1) for standardized features; the 0.25 multiplier widens the kernel to
// the scale of typical inter-class distances in z-scored healthcare
// feature spaces (tuned on the synthetic WESAD workload, where it clearly
// dominates 1.0 and 0.5).
func DefaultGamma(inDim int) float64 {
	return 0.25 / math.Sqrt(float64(inDim))
}

// New builds an encoder with N(0,1) projection weights, uniform phases,
// and the DefaultGamma bandwidth, all drawn deterministically from seed.
func New(inDim, outDim int, kind Kind, seed int64) (*Encoder, error) {
	return NewWithGamma(inDim, outDim, kind, DefaultGamma(inDim), seed)
}

// NewWithGamma builds an encoder with an explicit kernel bandwidth.
func NewWithGamma(inDim, outDim int, kind Kind, gamma float64, seed int64) (*Encoder, error) {
	e, err := newEncoder(inDim, outDim, kind, gamma)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	e.w = make([]float64, outDim*inDim)
	for i := range e.w {
		e.w[i] = rng.NormFloat64()
	}
	b, bt := make([]float64, outDim), make([]uint32, outDim)
	for i := range b {
		b[i] = rng.Float64() * 2 * math.Pi
		bt[i] = toTurns(b[i] / twoPi)
	}
	e.plane.Store(e.phasePlane(b, bt))
	return e, nil
}

// newEncoder validates the geometry and bandwidth both projection modes
// share.
func newEncoder(inDim, outDim int, kind Kind, gamma float64) (*Encoder, error) {
	if inDim <= 0 || outDim <= 0 {
		return nil, fmt.Errorf("encoding: invalid dimensions in=%d out=%d", inDim, outDim)
	}
	if gamma <= 0 {
		return nil, fmt.Errorf("encoding: gamma must be positive, got %v", gamma)
	}
	return &Encoder{InDim: inDim, OutDim: outDim, Kind: kind, Gamma: gamma}, nil
}

// MaxFeature bounds the magnitude of an encodable feature value. Within
// it a projection stays finite at any practical feature width, so
// phases, sign bits and class memory never meet an infinity or a NaN;
// no standardized feature comes anywhere near it.
const MaxFeature = 1e150

// CheckFeatures rejects a row holding a NaN, an infinity or a value
// beyond ±MaxFeature. Serving and training call it at admission, so a
// bad row fails alone instead of failing the micro-batch it would have
// joined; every encoder entry point checks again.
func CheckFeatures(x []float64) error {
	for k, v := range x {
		if !(math.Abs(v) <= MaxFeature) {
			return fmt.Errorf("encoding: feature %d is %v, outside [-%g, %g]", k, v, MaxFeature, MaxFeature)
		}
	}
	return nil
}

// checkRow validates one feature row: its width and, through
// CheckFeatures, its values.
func (e *Encoder) checkRow(x []float64) error {
	if len(x) != e.InDim {
		return fmt.Errorf("encoding: feature length %d != InDim %d", len(x), e.InDim)
	}
	return CheckFeatures(x)
}

// onePart is components [lo,hi) of the encoder as a one-part stack.
func (e *Encoder) onePart(lo, hi int) [1]Part {
	return [1]Part{{e, lo, hi}}
}

// EncodeInto maps one feature vector into hyperspace, writing the result
// into dst (length OutDim): the one-part case of Stack.EncodeInto, and
// allocation-free once warm.
func (e *Encoder) EncodeInto(x []float64, dst []float64) error {
	s := e.onePart(0, e.OutDim)
	return Stack(s[:]).EncodeInto(x, dst)
}

// Encode maps one feature vector into hyperspace.
func (e *Encoder) Encode(x []float64) (hdc.Vector, error) {
	h := make(hdc.Vector, e.OutDim)
	if err := e.EncodeInto(x, h); err != nil {
		return nil, err
	}
	return h, nil
}

// BatchRowBlock is the row-block granularity of the batch kernels.
// Callers that drive EncodeBatchInto from their own worker pools should
// feed it blocks of at most this many rows: a block then maps to a
// single internal work unit, so the inner par.ForEach stays on the
// caller's goroutine instead of spawning a nested pool.
const BatchRowBlock = 32

// Batch tiling parameters: each worker encodes BatchRowBlock rows at a
// time, sweeping the projection in dimBlock-component tiles so a tile is
// read once per row block instead of once per row: tens of kilobytes of
// a stored matrix, a GEMM-style loop, or a few rows of plane index bytes
// for a seeded encoder's table lookups.
const (
	encodeRowBlock = BatchRowBlock
	encodeDimBlock = 256
)

// EncodeBatchInto encodes every row of xs into the caller-owned flat
// buffer out: row i occupies out[i*stride+offset : i*stride+offset+OutDim].
// It is the one-part case of Stack.EncodeBatchInto.
func (e *Encoder) EncodeBatchInto(xs [][]float64, out []float64, stride, offset int) error {
	s := e.onePart(0, e.OutDim)
	return Stack(s[:]).EncodeBatchInto(xs, out, stride, offset)
}

// EncodeBatch maps a batch of feature vectors. The returned hypervectors
// are views into one flat allocation, encoded with the blocked batch
// kernel.
func (e *Encoder) EncodeBatch(xs [][]float64) ([]hdc.Vector, error) {
	out := make([]hdc.Vector, len(xs))
	if len(xs) == 0 {
		return out, nil
	}
	flat := make([]float64, len(xs)*e.OutDim)
	if err := e.EncodeBatchInto(xs, flat, e.OutDim, 0); err != nil {
		return nil, err
	}
	for i := range out {
		out[i] = hdc.Vector(flat[i*e.OutDim : (i+1)*e.OutDim])
	}
	return out, nil
}

// project writes the raw projections <w_j, x> of the n components from
// j0 on for rows xs[i:i+r], r = min(4, len(xs)-i), into acc[0:r][:n] and
// returns r. It is the kernels' one mode-specific step: a stored encoder
// runs the four-row register-blocked GEMM body (dots4) or the one-row dot
// over its rows; a seeded encoder sums table lookups indexed by plane p.
//
//hd:hotpath
func (e *Encoder) project(p *plane, lk *lookup, xs [][]float64, i, j0, n int, acc *[4][encodeDimBlock]float64) int {
	r := min(4, len(xs)-i)
	switch {
	case e.w == nil:
		for k := 0; k < r; k++ {
			lk.sumTables(i+k, p.idx[j0:], e.OutDim, acc[k][:n])
		}
	case r == 4:
		e.dots4(e.w[j0*e.InDim:], xs[i], xs[i+1], xs[i+2], xs[i+3], acc, n)
	default:
		for k := 0; k < r; k++ {
			e.dots(e.w[j0*e.InDim:], xs[i+k], acc[k][:n])
		}
	}
	return r
}

// dots4 is the stored projection's four-row GEMM body: each tile row is
// loaded once and fed to four independent accumulator chains, which
// hides the floating-point add latency that serializes a lone dot
// product. Every row still accumulates in feature index order, so the
// results are bit-identical to dots.
//
//hd:hotpath
func (e *Encoder) dots4(w, x0, x1, x2, x3 []float64, acc *[4][encodeDimBlock]float64, n int) {
	in := e.InDim
	// Pin every row to exactly InDim elements so the compiler can drop the
	// bounds checks inside the accumulation loop.
	x0, x1, x2, x3 = x0[:in], x1[:in], x2[:in], x3[:in]
	for t := 0; t < n; t++ {
		row := w[t*in : t*in+in]
		var s0, s1, s2, s3 float64
		for k, wv := range row {
			s0 += wv * x0[k]
			s1 += wv * x1[k]
			s2 += wv * x2[k]
			s3 += wv * x3[k]
		}
		acc[0][t], acc[1][t], acc[2][t], acc[3][t] = s0, s1, s2, s3
	}
}

// dots is the stored projection's one-row body — the batch remainder and
// the whole single-row path: acc[t] = <w_t, x> accumulated in feature
// index order.
//
//hd:hotpath
func (e *Encoder) dots(w, x, acc []float64) {
	in := e.InDim
	x = x[:in]
	for t := range acc {
		var s float64
		for k, wv := range w[t*in : t*in+in] {
			s += wv * x[k]
		}
		acc[t] = s
	}
}

// activate applies the activation to one row's tile of raw projections
// s with phases b, writing component j0+t into d[t]: the float kernel's
// last step, shared by both projection modes.
//
//hd:hotpath
func (e *Encoder) activate(s, b, hsb, d []float64) {
	g := e.Gamma
	s, d = s[:len(b)], d[:len(b)]
	switch e.Kind {
	case Nonlinear:
		hsb = hsb[:len(b)]
		for t, bt := range b {
			d[t] = 0.5*math.Sin(2*(s[t]*g)+bt) - hsb[t]
		}
	case RFF:
		for t, bt := range b {
			d[t] = math.Cos(s[t]*g + bt)
		}
	default:
		for t := range b {
			d[t] = s[t] * g
		}
	}
}

// toTurns returns the phase v, in turns, as a wrapping count of 2^-32
// turn: v mod 1 scaled by 2^32 and rounded down, a whole turn reading as
// 0. The scaling is exact, so the result is the floor of the scaled
// fraction. Every float64 of magnitude 2^52 or more is a whole number of
// turns, so it returns 0 for those without converting them, and every
// conversion it makes is in range.
//
//hd:hotpath
func toTurns(v float64) uint32 {
	if !(math.Abs(v) < 1<<52) {
		return 0
	}
	return uint32(uint64((v - math.Floor(v)) * (1 << 32)))
}

// turnSign returns the sign bit, 1 for >= 0, of cos(2πq)*sin(2πu) for
// phases u and q in units of 2^-32 turn: positive when the two factors'
// signs agree, sin being negative only for u strictly past the half
// turn and cos only for q strictly between the quarter and three-quarter
// turns, so a phase exactly on a quadrant boundary never reads as
// negative. Each comparison is a difference taken in 64 bits, whose
// sign bit is set exactly when it holds, so the sign needs no branch.
// u = 0 drops the sin factor, giving the sign of cos(2πq) alone.
//
//hd:hotpath
func turnSign(u, q uint32) uint64 {
	sinNeg := 1<<31 - uint64(u)
	cosNeg := uint64(q-(1<<30+1)) - (1<<31 - 1)
	return 1 ^ (sinNeg^cosNeg)>>63
}

// linearSign is the sign bit of p, 1 for p >= 0. Adding +0 folds -0 into
// +0, so -0 reads as >= 0.
//
//hd:hotpath
func linearSign(p float64) uint64 {
	return 1 ^ math.Float64bits(p+0)>>63
}

// turnWord returns the sign bits of up to 64 trigonometric components
// with projection phases u and phases b, both in turns, component j in
// bit j: turnSign(u[j]&mask, u[j]+b[j]), where mask is all ones for
// Nonlinear and 0 for RFF, which drops the sin factor. Bits are shifted
// in from the last component down, so every shift is by one.
//
//hd:hotpath
func turnWord(u, b []uint32, mask uint32) uint64 {
	u = u[:len(b)]
	var word uint64
	for j := len(b) - 1; j >= 0; j-- {
		word = word<<1 | turnSign(u[j]&mask, u[j]+b[j])
	}
	return word
}

// sinMask is turnWord's mask for kind k: all ones when the sign takes
// the sin factor, for Nonlinear, and 0 for RFF.
func sinMask(k Kind) uint32 {
	if k == Nonlinear {
		return ^uint32(0)
	}
	return 0
}

// signWords packs the sign bits of one row's tile of float projections s
// into d, word c holding components 64c..64c+63, bit j set when
// component j is >= 0: the sign kernel's last step for a stored part,
// and for a seeded Linear part. A trigonometric kind converts each
// projection Gamma*s[j] to turns once and packs turnWord's bits with the
// phases b. Linear, whose wrapped phase would lose the sign, packs the
// sign of Gamma*s[j]. s must be finite, which the encoder's input check
// guarantees.
//
//hd:hotpath
func (e *Encoder) signWords(s []float64, b []uint32, d []uint64) {
	s = s[:len(b)]
	if e.Kind == Linear {
		g := e.Gamma
		for c := 0; c*64 < len(b); c++ {
			lo, hi := c*64, min(c*64+64, len(b))
			var word uint64
			for j := lo; j < hi; j++ {
				word |= linearSign(s[j]*g) << uint(j-lo)
			}
			d[c] = word
		}
		return
	}
	var u [encodeDimBlock]uint32
	c := e.Gamma / twoPi
	for j, sj := range s {
		u[j] = toTurns(sj * c)
	}
	mask := sinMask(e.Kind)
	for c := 0; c*64 < len(b); c++ {
		lo, hi := c*64, min(c*64+64, len(b))
		d[c] = turnWord(u[lo:hi], b[lo:hi], mask)
	}
}

// EncodeBitsRange writes the sign bits of encoding components [lo,hi) of x
// into dst: bit k of dst is set iff component lo+k of the encoding is
// >= 0. For the trigonometric kinds the sign is derived from the phase
// quadrants directly — sign(cos(d+b)*sin(d)) = sign(cos(d+b))*sign(sin(d))
// — with the phases held as wrapping counts of 2^-32 turn, so the
// packed-binary backend never evaluates sin or cos at all. It is the
// one-part case of Stack.EncodeBits, and allocation-free once warm.
func (e *Encoder) EncodeBitsRange(x []float64, lo, hi int, dst *hdc.BitVector) error {
	s, ds := e.onePart(lo, hi), [1]*hdc.BitVector{dst}
	return Stack(s[:]).EncodeBits(x, ds[:])
}

// EncodeBitsRangeBatch encodes components [lo,hi) of every row of xs into
// dst: bit k of dst[r] is the sign bit of component lo+k of row r's
// encoding. It is the one-part case of Stack.EncodeBitsBatch.
func (e *Encoder) EncodeBitsRangeBatch(xs [][]float64, lo, hi int, dst []*hdc.BitVector) error {
	rows := make([][]*hdc.BitVector, len(dst))
	for r := range dst {
		rows[r] = dst[r : r+1]
	}
	s := e.onePart(lo, hi)
	return Stack(s[:]).EncodeBitsBatch(xs, rows)
}

// ProjectionMatrix returns a copy of the OutDim x InDim projection weights;
// the random-matrix experiments inspect encoder spectra through it. A
// seeded encoder generates its ±1 rows on demand from the sign stream, so
// the result is independent of the plane the kernels read.
func (e *Encoder) ProjectionMatrix() []float64 {
	if e.w != nil {
		return append([]float64(nil), e.w...)
	}
	out := make([]float64, e.OutDim*e.InDim)
	for j := 0; j < e.OutDim; j++ {
		for k := 0; k < e.InDim; k++ {
			out[j*e.InDim+k] = -1
			if e.signWord(j, k/64)>>(k%64)&1 == 1 {
				out[j*e.InDim+k] = 1
			}
		}
	}
	return out
}
