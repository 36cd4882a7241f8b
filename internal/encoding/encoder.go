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
// Every entry point, single-row or batch, runs one of two blocked
// kernels: a float kernel, and a sign-only kernel for the packed-binary
// backend that skips the trigonometric evaluation entirely. Both sweep
// the projection in tiles of 256 components and write into caller-owned
// buffers. Only the projection step depends on the mode (see
// Projection): a GEMM over a stored matrix, or table lookups indexed by
// sign words regenerated from a seeded counter stream. The activation
// and sign steps after it are shared.
package encoding

import (
	"fmt"
	"math"
	"math/rand"

	"boosthd/internal/hdc"
	"boosthd/internal/par"
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

	// w is the stored OutDim x InDim projection, row-major, and b the
	// OutDim phase offsets. Both are nil on a seeded encoder, whose
	// kernels regenerate rows and phases from the counter streams rooted
	// at wBase/bBase; wpr is the number of 64-bit sign words per row,
	// ceil(InDim/64).
	w, b         []float64
	wBase, bBase uint64
	wpr          int

	// halfSinB caches 0.5*sin(b_j) for the product-to-sum form of the
	// nonlinear activation: cos(d+b)*sin(d) = 0.5*sin(2d+b) - 0.5*sin(b),
	// which costs one trigonometric evaluation per component instead of
	// two on the inference hot path. A seeded encoder computes it per tile.
	halfSinB []float64
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
	e.b = make([]float64, outDim)
	for i := range e.b {
		e.b[i] = rng.Float64() * 2 * math.Pi
	}
	if kind == Nonlinear {
		e.halfSinB = make([]float64, outDim)
		for i, b := range e.b {
			e.halfSinB[i] = 0.5 * math.Sin(b)
		}
	}
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

// EncodeInto maps one feature vector into hyperspace, writing the result
// into dst (length OutDim). It allocates nothing once warm: a seeded
// encoder's lookup scratch comes from a pool.
func (e *Encoder) EncodeInto(x []float64, dst []float64) error {
	if err := e.checkRow(x); err != nil {
		return err
	}
	if len(dst) != e.OutDim {
		return fmt.Errorf("encoding: dst length %d != OutDim %d", len(dst), e.OutDim)
	}
	xs := [1][]float64{x}
	e.encodeRows(xs[:], dst, e.OutDim, 0)
	return nil
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
// fetched once per row block instead of once per row: tens of kilobytes
// of a stored matrix, a GEMM-style loop, or one set of regenerated sign
// words for a seeded encoder's table lookups.
const (
	encodeRowBlock = BatchRowBlock
	encodeDimBlock = 256
)

// EncodeBatchInto encodes every row of xs into the caller-owned flat
// buffer out: row i occupies out[i*stride+offset : i*stride+offset+OutDim].
// stride >= offset+OutDim lets several encoders (e.g. BoostHD's
// per-segment stack) share one row-major matrix. Rows are processed in
// blocks across workers with the projection tiled for cache reuse.
func (e *Encoder) EncodeBatchInto(xs [][]float64, out []float64, stride, offset int) error {
	if len(xs) == 0 {
		return nil
	}
	if offset < 0 || stride < offset+e.OutDim {
		return fmt.Errorf("encoding: stride %d cannot hold OutDim %d at offset %d", stride, e.OutDim, offset)
	}
	if len(out) < len(xs)*stride {
		return fmt.Errorf("encoding: out length %d < %d rows * stride %d", len(out), len(xs), stride)
	}
	for i, x := range xs {
		if err := e.checkRow(x); err != nil {
			return fmt.Errorf("encoding: row %d: %w", i, err)
		}
	}
	blocks := (len(xs) + encodeRowBlock - 1) / encodeRowBlock
	return par.ForEach(blocks, func(blk int) error {
		lo := blk * encodeRowBlock
		hi := min(lo+encodeRowBlock, len(xs))
		e.encodeRows(xs[lo:hi], out[lo*stride:], stride, offset)
		return nil
	})
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

// tile fetches what the kernels need of projection rows [j0,j1): their
// phases — a view of a stored encoder's, or regenerated from the phase
// stream into bBuf — and, on a stored encoder, a row-major view of the
// rows themselves. A seeded encoder returns w == nil and instead splits
// the rows' sign words into lk's per-group byte indexes, generating each
// sign word once for every row of the block.
//
//hd:hotpath
func (e *Encoder) tile(j0, j1 int, lk *lookup, bBuf *[encodeDimBlock]float64) (w, b []float64) {
	if e.w != nil {
		return e.w[j0*e.InDim : j1*e.InDim], e.b[j0:j1]
	}
	for j := j0; j < j1; j++ {
		bBuf[j-j0] = e.phaseAt(j)
	}
	lk.indexTile(e, j0, j1)
	return nil, bBuf[:j1-j0]
}

// halfSinTile returns 0.5*sin(b) for the phases b of the tile starting at
// component j0: a view of the stored cache, or computed into buf once per
// tile, so the sin() costs one evaluation per (component, row block).
//
//hd:hotpath
func (e *Encoder) halfSinTile(j0 int, b []float64, buf *[encodeDimBlock]float64) []float64 {
	if e.halfSinB != nil {
		return e.halfSinB[j0 : j0+len(b)]
	}
	for i, bv := range b {
		buf[i] = 0.5 * math.Sin(bv)
	}
	return buf[:len(b)]
}

// project writes the raw projections <w_j, x> of the tile's n components
// for rows xs[i:i+r], r = min(4, len(xs)-i), into acc[0:r][:n] and
// returns r. It is the kernels' one mode-specific step: a stored encoder
// runs the four-row register-blocked GEMM body (dots4) or the one-row dot
// over the tile rows w; a seeded encoder (w == nil) sums table lookups.
//
//hd:hotpath
func (e *Encoder) project(w []float64, lk *lookup, xs [][]float64, i, n int, acc *[4][encodeDimBlock]float64) int {
	r := min(4, len(xs)-i)
	switch {
	case w == nil:
		for k := 0; k < r; k++ {
			lk.sumTables(i+k, acc[k][:n])
		}
	case r == 4:
		e.dots4(w, xs[i], xs[i+1], xs[i+2], xs[i+3], acc, n)
	default:
		for k := 0; k < r; k++ {
			e.dots(w, xs[i+k], acc[k][:n])
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

// encodeRows is the blocked float kernel behind every float entry point:
// row i of xs is encoded into out[i*stride+offset : i*stride+offset+OutDim].
// Rows run in blocks (all of xs on a stored encoder, a lookup block on a
// seeded one), dimension tiles inside a block; each tile is fetched once
// and swept four rows at a time.
//
//hd:hotpath
func (e *Encoder) encodeRows(xs [][]float64, out []float64, stride, offset int) {
	var bBuf, hsbBuf [encodeDimBlock]float64
	var acc [4][encodeDimBlock]float64
	lk, step := e.getLookup(len(xs))
	if lk != nil {
		defer putLookup(lk)
	}
	for r0 := 0; r0 < len(xs); r0 += step {
		blk := xs[r0:min(r0+step, len(xs))]
		if lk != nil {
			lk.buildTables(blk)
		}
		for j0 := 0; j0 < e.OutDim; j0 += encodeDimBlock {
			w, b := e.tile(j0, min(j0+encodeDimBlock, e.OutDim), lk, &bBuf)
			var hsb []float64
			if e.Kind == Nonlinear {
				hsb = e.halfSinTile(j0, b, &hsbBuf)
			}
			for i := 0; i < len(blk); i += 4 {
				for k := range e.project(w, lk, blk, i, len(b), &acc) {
					e.activate(acc[k][:len(b)], b, hsb, out[(r0+i+k)*stride+offset+j0:])
				}
			}
		}
	}
}

const invTwoPi = 1 / (2 * math.Pi)

// phaseFrac returns t/(2*pi) mod 1 in [0,1) — the quadrant information the
// sign-only encoder needs, at the cost of a multiply and a floor instead
// of a full trigonometric evaluation.
//
//hd:hotpath
func phaseFrac(t float64) float64 {
	f := t * invTwoPi
	return f - math.Floor(f)
}

// phaseSign returns the sign bit, 1 for >= 0, of cos(p+b)*sin(p) from the
// phase fractions f of p and fc of p+b: positive when the two factors'
// signs agree, cos(p+b) being negative for fc strictly between the
// quarter and three-quarter turns and sin(p) past the half turn. It is
// the comparison form (f > 0.5) == (fc > 0.25 && fc < 0.75) without a
// branch: for finite a and b the rounded difference b-a carries the sign
// of the exact one and is +0 when a == b (the bounds are nonzero, so
// never -0), so its IEEE sign bit is set exactly when a > b. f = 0 drops
// the sin factor, giving the sign of cos(p+b) alone.
//
//hd:hotpath
func phaseSign(f, fc float64) uint64 {
	sinNeg := math.Float64bits(0.5 - f)
	cosNeg := math.Float64bits(0.25-fc) & math.Float64bits(fc-0.75)
	return 1 ^ (sinNeg^cosNeg)>>63
}

// linearSign is the sign bit of p, 1 for p >= 0. Adding +0 folds -0 into
// +0, so -0 reads as >= 0.
//
//hd:hotpath
func linearSign(p float64) uint64 {
	return 1 ^ math.Float64bits(p+0)>>63
}

// signWords packs the sign bits of one row's tile of raw projections s
// with phases b into d, word c holding components 64c..64c+63: bit j is
// 1 when component j of the encoding is >= 0, read off the phase
// quadrants of p = Gamma*s[j] and b[j] — the sign of cos(p+b) for RFF,
// times the sign of sin(p) for Nonlinear, and the sign of p for Linear.
// It is the sign-bit kernel's last step, shared by both projection
// modes, and p must be finite, which the encoder's input check
// guarantees. The kind switch sits outside the component loops so the
// per-component sign inlines.
//
//hd:hotpath
func (e *Encoder) signWords(s, b []float64, d []uint64) {
	g := e.Gamma
	s = s[:len(b)]
	for c := 0; c*64 < len(b); c++ {
		lo, hi := c*64, min(c*64+64, len(b))
		var word uint64
		switch e.Kind {
		case Nonlinear:
			for j := lo; j < hi; j++ {
				p := s[j] * g
				word |= phaseSign(phaseFrac(p), phaseFrac(p+b[j])) << uint(j-lo)
			}
		case RFF:
			for j := lo; j < hi; j++ {
				word |= phaseSign(0, phaseFrac(s[j]*g+b[j])) << uint(j-lo)
			}
		default:
			for j := lo; j < hi; j++ {
				word |= linearSign(s[j]*g) << uint(j-lo)
			}
		}
		d[c] = word
	}
}

// EncodeBitsRange writes the sign bits of encoding components [lo,hi) of x
// into dst: bit k of dst is set iff component lo+k of the real encoding is
// >= 0. For the trigonometric kinds the sign is derived from the phase
// quadrants directly — sign(cos(d+b)*sin(d)) = sign(cos(d+b))*sign(sin(d))
// — so the packed-binary backend never evaluates sin or cos at all.
func (e *Encoder) EncodeBitsRange(x []float64, lo, hi int, dst *hdc.BitVector) error {
	xs, ds := [1][]float64{x}, [1]*hdc.BitVector{dst}
	return e.EncodeBitsRangeBatch(xs[:], lo, hi, ds[:])
}

// EncodeBitsRangeBatch encodes components [lo,hi) of every row of xs into
// dst: bit k of dst[r] is the sign bit of component lo+k of row r's
// encoding. Rows run through the same blocked projection as the float
// kernel, and bits are assembled in registers and flushed a whole 64-bit
// word at a time.
func (e *Encoder) EncodeBitsRangeBatch(xs [][]float64, lo, hi int, dst []*hdc.BitVector) error {
	if len(dst) != len(xs) {
		return fmt.Errorf("encoding: %d bit destinations for %d rows", len(dst), len(xs))
	}
	for i, x := range xs {
		if err := e.checkRow(x); err != nil {
			return fmt.Errorf("encoding: row %d: %w", i, err)
		}
	}
	if lo < 0 || hi > e.OutDim || lo > hi {
		return fmt.Errorf("encoding: bit range [%d,%d) outside [0,%d)", lo, hi, e.OutDim)
	}
	// Destinations must be exactly the range width: the kernel stores
	// whole 64-bit words, so a wider vector would have bits beyond the
	// range zeroed.
	for i, d := range dst {
		if d.N != hi-lo {
			return fmt.Errorf("encoding: row %d bit destination dim %d != range width %d", i, d.N, hi-lo)
		}
	}
	e.encodeBitsRows(xs, lo, hi, dst)
	return nil
}

// encodeBitsRows is the blocked sign-bit kernel behind every bit entry
// point: encodeRows' loop over [lo,hi) with signWords as the last step.
// Tiles span whole 64-bit words, so each row stores complete words.
//
//hd:hotpath
func (e *Encoder) encodeBitsRows(xs [][]float64, lo, hi int, dst []*hdc.BitVector) {
	var bBuf [encodeDimBlock]float64
	var acc [4][encodeDimBlock]float64
	lk, step := e.getLookup(len(xs))
	if lk != nil {
		defer putLookup(lk)
	}
	for r0 := 0; r0 < len(xs); r0 += step {
		blk := xs[r0:min(r0+step, len(xs))]
		if lk != nil {
			lk.buildTables(blk)
		}
		for t0 := lo; t0 < hi; t0 += encodeDimBlock {
			w, b := e.tile(t0, min(t0+encodeDimBlock, hi), lk, &bBuf)
			word := (t0 - lo) / 64
			for i := 0; i < len(blk); i += 4 {
				for k := range e.project(w, lk, blk, i, len(b), &acc) {
					e.signWords(acc[k][:len(b)], b, dst[r0+i+k].Words[word:])
				}
			}
		}
	}
}

// ProjectionMatrix returns a copy of the OutDim x InDim projection weights;
// the random-matrix experiments inspect encoder spectra through it. A
// seeded encoder generates its rows on demand from the counter streams —
// O(OutDim x InDim) work and allocation, deliberately not cached so the
// encoder keeps its O(1) state.
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
