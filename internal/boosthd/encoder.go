package boosthd

import (
	"fmt"
	"math"

	"boosthd/internal/encoding"
	"boosthd/internal/hdc"
)

// encoderStack is the encoding stage of a BoostHD model. It maps each
// learner's dimension segment to a (sub-encoder, component range) pair:
// with one shared projection every segment is a range of a single
// full-width encoder; with a bandwidth spread it realizes Figure 1's
// per-learner "HD Encoding" boxes, each segment the whole output of its
// own projection with its own kernel bandwidth. Spreading the bandwidths
// geometrically around the base gamma gives the ensemble multi-scale
// views of the input — coarse kernels for broad structure, sharp kernels
// for fine structure — which is diversity a single shared bandwidth
// cannot provide. Every entry point is one call into the encoding
// package's stack kernels, which validate each row once and build its
// lookup tables once for all segments.
type encoderStack struct {
	encs  []*encoding.Encoder // sub-encoders, back to back across the full width
	parts encoding.Stack      // one per learner segment, in segment order
	out   int                 // full encoding width
}

// newSubEncoder builds one projection for the stack, honoring the
// configured projection mode. The seed schedule is shared across modes,
// so a config differs only in where its projection lives.
func newSubEncoder(features, outDim int, cfg Config, gamma float64, seed int64) (*encoding.Encoder, error) {
	switch cfg.Projection {
	case encoding.ProjStored:
		return encoding.NewWithGamma(features, outDim, cfg.Encoder, gamma, seed)
	case encoding.ProjSeeded:
		return encoding.NewSeededWithGamma(features, outDim, cfg.Encoder, gamma, seed)
	default:
		return nil, fmt.Errorf("unknown projection mode %v", cfg.Projection)
	}
}

// newEncoderStack builds the encoder stack for cfg. GammaSpread <= 1 (or
// a single learner) degenerates to one shared encoder with the base
// bandwidth; otherwise learner i gets bandwidth
// gamma * spread^(2i/(NL-1) - 1), covering [gamma/spread, gamma*spread].
func newEncoderStack(features int, cfg Config, gamma float64) (*encoderStack, error) {
	segs := partition(cfg.TotalDim, cfg.NumLearners)
	s := &encoderStack{out: cfg.TotalDim}
	if cfg.GammaSpread <= 1 || cfg.NumLearners == 1 {
		enc, err := newSubEncoder(features, cfg.TotalDim, cfg, gamma, cfg.Seed)
		if err != nil {
			return nil, err
		}
		s.encs = []*encoding.Encoder{enc}
		for _, seg := range segs {
			s.parts = append(s.parts, encoding.Part{Enc: enc, Lo: seg.lo, Hi: seg.hi})
		}
		return s, nil
	}
	nl := float64(cfg.NumLearners - 1)
	for i, seg := range segs {
		t := 2*float64(i)/nl - 1 // -1 .. +1 across learners
		g := gamma * pow(cfg.GammaSpread, t)
		enc, err := newSubEncoder(features, seg.hi-seg.lo, cfg, g, cfg.Seed+int64(i)*7717)
		if err != nil {
			return nil, fmt.Errorf("boosthd: segment %d encoder: %w", i, err)
		}
		s.encs = append(s.encs, enc)
		s.parts = append(s.parts, encoding.Part{Enc: enc, Lo: 0, Hi: enc.OutDim})
	}
	return s, nil
}

func pow(base, exp float64) float64 {
	if base <= 0 {
		return 1
	}
	return math.Pow(base, exp)
}

// Encode concatenates the segments' encodings into one full-width
// hypervector, preserving the segment layout the learners expect.
func (s *encoderStack) Encode(x []float64) (hdc.Vector, error) {
	out := make(hdc.Vector, s.out)
	if err := s.parts.EncodeInto(x, out); err != nil {
		return nil, err
	}
	return out, nil
}

// EncodeBatchInto writes row i's full-width encoding into
// out[i*stride+offset:].
func (s *encoderStack) EncodeBatchInto(xs [][]float64, out []float64, stride, offset int) error {
	return s.parts.EncodeBatchInto(xs, out, stride, offset)
}

// EncodeBatch encodes every row into views of one flat allocation.
func (s *encoderStack) EncodeBatch(xs [][]float64) ([]hdc.Vector, error) {
	outs := make([]hdc.Vector, len(xs))
	if len(xs) == 0 {
		return outs, nil
	}
	flat := make([]float64, len(xs)*s.out)
	if err := s.EncodeBatchInto(xs, flat, s.out, 0); err != nil {
		return nil, err
	}
	for i := range outs {
		outs[i] = hdc.Vector(flat[i*s.out : (i+1)*s.out])
	}
	return outs, nil
}

// EncodeSegment encodes learner i's dimension segment of every row of X
// through that segment's one-part stack, whose values equal the segment
// of the full-width encoding. Row r lands in buf[r*w:(r+1)*w], w the
// segment width; a buf shorter than len(X)*w is replaced, and the buffer
// used is returned. A loop over learners that passes it back in holds
// one segment's encodings at a time instead of every row at full width.
// The rows are views of the buffer, which the next call overwrites.
func (m *Model) EncodeSegment(i int, X [][]float64, buf []float64) (rows []hdc.Vector, used []float64, err error) {
	pt := m.Enc.parts[i]
	w := pt.Hi - pt.Lo
	if len(buf) < len(X)*w {
		buf = make([]float64, len(X)*w)
	}
	if err := (encoding.Stack{pt}).EncodeBatchInto(X, buf, w, 0); err != nil {
		return nil, buf, err
	}
	rows = make([]hdc.Vector, len(X))
	for r := range rows {
		rows[r] = hdc.Vector(buf[r*w : (r+1)*w : (r+1)*w])
	}
	return rows, buf, nil
}

// StateBytes sums the sub-encoders' resident state: projection matrices
// and planes.
func (s *encoderStack) StateBytes() int {
	total := 0
	for _, enc := range s.encs {
		total += enc.StateBytes()
	}
	return total
}
