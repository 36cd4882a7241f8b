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
// the projection in tiles of rows — views of a stored matrix, or rows
// regenerated from a seeded counter stream (see Projection) — and write
// into caller-owned buffers, so a batch is one cache-friendly GEMM-style
// loop rather than independent row encodes.
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

// checkRow validates one feature row.
func (e *Encoder) checkRow(x []float64) error {
	if len(x) != e.InDim {
		return fmt.Errorf("encoding: feature length %d != InDim %d", len(x), e.InDim)
	}
	return nil
}

// EncodeInto maps one feature vector into hyperspace, writing the result
// into dst (length OutDim). A stored encoder allocates nothing; a seeded
// one regenerates its rows into a pooled tile.
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
// time, sweeping the projection in dimBlock-row tiles so a tile is loaded
// once per row block instead of once per row. At typical feature widths a
// tile is tens of kilobytes — cache resident — which turns the batch
// projection into a blocked GEMM-style loop.
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

// tile fetches projection rows [j0,j1), row-major, and their phases:
// views of a stored encoder's matrix, or the rows and phases a seeded
// encoder regenerates from its counter streams into wBuf and bBuf. It is
// the one place the kernels see the projection mode; every loop after it
// is shared.
//
//hd:hotpath
func (e *Encoder) tile(j0, j1 int, wBuf []float64, bBuf *[encodeDimBlock]float64) (w, b []float64) {
	if e.w != nil {
		return e.w[j0*e.InDim : j1*e.InDim], e.b[j0:j1]
	}
	e.materializeRowsInto(j0, j1, wBuf)
	for j := j0; j < j1; j++ {
		bBuf[j-j0] = e.phaseAt(j)
	}
	return wBuf[:(j1-j0)*e.InDim], bBuf[:j1-j0]
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

// dot is <w, x> accumulated in feature index order: the per-component
// dot of the one-row kernel bodies.
//
//hd:hotpath
func dot(w, x []float64) float64 {
	x = x[:len(w)]
	var s float64
	for k, wv := range w {
		s += wv * x[k]
	}
	return s
}

// encodeRows is the blocked float kernel behind every float entry point:
// row i of xs is encoded into out[i*stride+offset : i*stride+offset+OutDim].
// Dimension tiles run outer; each tile is fetched once and swept by
// encode4 over four-row groups and by encodeRow over the remainder.
//
//hd:hotpath
func (e *Encoder) encodeRows(xs [][]float64, out []float64, stride, offset int) {
	var bBuf, hsbBuf [encodeDimBlock]float64
	var wBuf []float64
	if e.w == nil {
		wBuf = getTile(encodeDimBlock * e.InDim)
		defer putTile(wBuf)
	}
	for j0 := 0; j0 < e.OutDim; j0 += encodeDimBlock {
		j1 := min(j0+encodeDimBlock, e.OutDim)
		w, b := e.tile(j0, j1, wBuf, &bBuf)
		var hsb []float64
		if e.Kind == Nonlinear {
			hsb = e.halfSinTile(j0, b, &hsbBuf)
		}
		i := 0
		for ; i+4 <= len(xs); i += 4 {
			d := out[i*stride+offset+j0:]
			e.encode4(w, b, hsb, xs[i], xs[i+1], xs[i+2], xs[i+3], d, d[stride:], d[2*stride:], d[3*stride:])
		}
		for ; i < len(xs); i++ {
			e.encodeRow(w, b, hsb, xs[i], out[i*stride+offset+j0:])
		}
	}
}

// encode4 encodes one tile of components for four rows, writing component
// j0+t of row r into dr[t]. Each tile row is loaded once and fed to four
// independent accumulator chains — the register-blocking step of the
// batch GEMM — which hides the floating-point add latency that serializes
// a lone dot product. Every row still accumulates in index order, so
// results are bit-identical to encodeRow.
//
//hd:hotpath
func (e *Encoder) encode4(w, b, hsb, x0, x1, x2, x3, d0, d1, d2, d3 []float64) {
	in := e.InDim
	g := e.Gamma
	// Pin every row to exactly InDim elements so the compiler can drop the
	// bounds checks inside the accumulation loop.
	x0, x1, x2, x3 = x0[:in], x1[:in], x2[:in], x3[:in]
	for t, bt := range b {
		row := w[t*in : t*in+in]
		var s0, s1, s2, s3 float64
		for k, wv := range row {
			s0 += wv * x0[k]
			s1 += wv * x1[k]
			s2 += wv * x2[k]
			s3 += wv * x3[k]
		}
		switch e.Kind {
		case Nonlinear:
			h := hsb[t]
			d0[t] = 0.5*math.Sin(2*(s0*g)+bt) - h
			d1[t] = 0.5*math.Sin(2*(s1*g)+bt) - h
			d2[t] = 0.5*math.Sin(2*(s2*g)+bt) - h
			d3[t] = 0.5*math.Sin(2*(s3*g)+bt) - h
		case RFF:
			d0[t] = math.Cos(s0*g + bt)
			d1[t] = math.Cos(s1*g + bt)
			d2[t] = math.Cos(s2*g + bt)
			d3[t] = math.Cos(s3*g + bt)
		default:
			d0[t] = s0 * g
			d1[t] = s1 * g
			d2[t] = s2 * g
			d3[t] = s3 * g
		}
	}
}

// encodeRow encodes one tile of components for one row — the batch
// remainder and the whole single-row path — writing component j0+t into
// d[t].
//
//hd:hotpath
func (e *Encoder) encodeRow(w, b, hsb, x, d []float64) {
	in := e.InDim
	g := e.Gamma
	x = x[:in]
	for t, bt := range b {
		s := dot(w[t*in:t*in+in], x)
		switch e.Kind {
		case Nonlinear:
			d[t] = 0.5*math.Sin(2*(s*g)+bt) - hsb[t]
		case RFF:
			d[t] = math.Cos(s*g + bt)
		default:
			d[t] = s * g
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

// signBit reports the sign of one encoding component from its projection
// p = Gamma * <w_j, x> and phase b, read off the phase quadrants: RFF is
// the sign of cos(p+b), Nonlinear the product of the signs of cos(p+b)
// and sin(p), Linear the raw projection sign.
//
//hd:hotpath
func (e *Encoder) signBit(p, b float64) bool {
	switch e.Kind {
	case Nonlinear:
		fc := phaseFrac(p + b)
		return (phaseFrac(p) > 0.5) == (fc > 0.25 && fc < 0.75)
	case RFF:
		fc := phaseFrac(p + b)
		return !(fc > 0.25 && fc < 0.75)
	default:
		return p >= 0
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
// encoding. Rows are register-blocked four at a time like the float
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
// point. Tiles of [lo,hi) run outer; each is fetched once and swept by
// encodeBits4 over four-row groups and by encodeBitsRow over the
// remainder. Tiles span whole 64-bit words, so each body stores complete
// words.
//
//hd:hotpath
func (e *Encoder) encodeBitsRows(xs [][]float64, lo, hi int, dst []*hdc.BitVector) {
	var bBuf [encodeDimBlock]float64
	var wBuf []float64
	if e.w == nil {
		wBuf = getTile(encodeDimBlock * e.InDim)
		defer putTile(wBuf)
	}
	for t0 := lo; t0 < hi; t0 += encodeDimBlock {
		t1 := min(t0+encodeDimBlock, hi)
		w, b := e.tile(t0, t1, wBuf, &bBuf)
		word := (t0 - lo) / 64
		r := 0
		for ; r+4 <= len(xs); r += 4 {
			e.encodeBits4(w, b, xs[r], xs[r+1], xs[r+2], xs[r+3],
				dst[r].Words[word:], dst[r+1].Words[word:], dst[r+2].Words[word:], dst[r+3].Words[word:])
		}
		for ; r < len(xs); r++ {
			e.encodeBitsRow(w, b, xs[r], dst[r].Words[word:])
		}
	}
}

// encodeBits4 is the four-row register-blocked body of the sign-bit
// kernel: one sweep of a tile's rows feeds four independent dot-product
// chains, each component's sign is read off its phase, and word c of
// dr receives the signs of tile components 64c..64c+63 of row r.
//
//hd:hotpath
func (e *Encoder) encodeBits4(w, b, x0, x1, x2, x3 []float64, d0, d1, d2, d3 []uint64) {
	in := e.InDim
	g := e.Gamma
	x0, x1, x2, x3 = x0[:in], x1[:in], x2[:in], x3[:in]
	if e.Kind == Nonlinear {
		// The hot configuration gets a fully inlined body: the sign of
		// cos(p+b)*sin(p) is the XNOR of the two factors' phase signs.
		for jStart := 0; jStart < len(b); jStart += 64 {
			jEnd := min(jStart+64, len(b))
			var w0, w1, w2, w3 uint64
			for j := jStart; j < jEnd; j++ {
				row := w[j*in : j*in+in]
				var s0, s1, s2, s3 float64
				for k, wv := range row {
					s0 += wv * x0[k]
					s1 += wv * x1[k]
					s2 += wv * x2[k]
					s3 += wv * x3[k]
				}
				bj := b[j]
				bit := uint64(1) << uint(j-jStart)
				p := s0 * g
				fc := phaseFrac(p + bj)
				if (phaseFrac(p) > 0.5) == (fc > 0.25 && fc < 0.75) {
					w0 |= bit
				}
				p = s1 * g
				fc = phaseFrac(p + bj)
				if (phaseFrac(p) > 0.5) == (fc > 0.25 && fc < 0.75) {
					w1 |= bit
				}
				p = s2 * g
				fc = phaseFrac(p + bj)
				if (phaseFrac(p) > 0.5) == (fc > 0.25 && fc < 0.75) {
					w2 |= bit
				}
				p = s3 * g
				fc = phaseFrac(p + bj)
				if (phaseFrac(p) > 0.5) == (fc > 0.25 && fc < 0.75) {
					w3 |= bit
				}
			}
			c := jStart / 64
			d0[c], d1[c], d2[c], d3[c] = w0, w1, w2, w3
		}
		return
	}
	for jStart := 0; jStart < len(b); jStart += 64 {
		jEnd := min(jStart+64, len(b))
		var w0, w1, w2, w3 uint64
		for j := jStart; j < jEnd; j++ {
			row := w[j*in : j*in+in]
			var s0, s1, s2, s3 float64
			for k, wv := range row {
				s0 += wv * x0[k]
				s1 += wv * x1[k]
				s2 += wv * x2[k]
				s3 += wv * x3[k]
			}
			bj := b[j]
			bit := uint64(1) << uint(j-jStart)
			if e.signBit(s0*g, bj) {
				w0 |= bit
			}
			if e.signBit(s1*g, bj) {
				w1 |= bit
			}
			if e.signBit(s2*g, bj) {
				w2 |= bit
			}
			if e.signBit(s3*g, bj) {
				w3 |= bit
			}
		}
		c := jStart / 64
		d0[c], d1[c], d2[c], d3[c] = w0, w1, w2, w3
	}
}

// encodeBitsRow is the one-row body of the sign-bit kernel — the batch
// remainder and the whole single-row path — storing word c of d from
// tile components 64c..64c+63.
//
//hd:hotpath
func (e *Encoder) encodeBitsRow(w, b, x []float64, d []uint64) {
	in := e.InDim
	g := e.Gamma
	x = x[:in]
	for jStart := 0; jStart < len(b); jStart += 64 {
		jEnd := min(jStart+64, len(b))
		var word uint64
		for j := jStart; j < jEnd; j++ {
			if e.signBit(dot(w[j*in:j*in+in], x)*g, b[j]) {
				word |= 1 << uint(j-jStart)
			}
		}
		d[jStart/64] = word
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
	e.materializeRowsInto(0, e.OutDim, out)
	return out
}
