package encoding

import (
	"fmt"

	"boosthd/internal/hdc"
	"boosthd/internal/par"
)

// Part is one slice of an encoder stack: components [Lo,Hi) of Enc.
type Part struct {
	Enc    *Encoder
	Lo, Hi int
}

// Stack is a list of parts over one input width, encoded as one: the
// float entry points lay the parts out back to back, and the sign-bit
// entry points write part i into destination i. A BoostHD model is a
// stack with one part per learner, each the whole output of its own
// encoder or a range of one shared encoder. The float kernel's lookup
// tables depend only on the row and the input width, so a stack builds
// them once per row block and every seeded part reads them; the sign
// kernel's turn tables also depend on the part's bandwidth, so it builds
// them per part and row. A stored part runs its GEMM. A lone
// Encoder's entry points are the one-part case, so each output kind has
// exactly one kernel.
type Stack []Part

// width validates the stack, at least one part, each a component range
// of its encoder over the first part's input width, and returns the
// parts' summed width.
func (s Stack) width() (int, error) {
	if len(s) == 0 {
		return 0, fmt.Errorf("encoding: empty stack")
	}
	w := 0
	for i, pt := range s {
		if pt.Lo < 0 || pt.Hi > pt.Enc.OutDim || pt.Lo > pt.Hi {
			return 0, fmt.Errorf("encoding: part %d range [%d,%d) outside [0,%d)", i, pt.Lo, pt.Hi, pt.Enc.OutDim)
		}
		if pt.Enc.InDim != s[0].Enc.InDim {
			return 0, fmt.Errorf("encoding: part %d InDim %d != stack InDim %d", i, pt.Enc.InDim, s[0].Enc.InDim)
		}
		w += pt.Hi - pt.Lo
	}
	return w, nil
}

// checkRows validates every row once for the whole stack.
func (s Stack) checkRows(xs [][]float64) error {
	for i, x := range xs {
		if err := s[0].Enc.checkRow(x); err != nil {
			return fmt.Errorf("encoding: row %d: %w", i, err)
		}
	}
	return nil
}

// EncodeInto writes x's float encoding into dst, the parts back to back;
// len(dst) must be the parts' summed width. It allocates nothing once
// warm: kernel scratch comes from a pool.
func (s Stack) EncodeInto(x, dst []float64) error {
	w, err := s.width()
	if err != nil {
		return err
	}
	if err := s[0].Enc.checkRow(x); err != nil {
		return err
	}
	if len(dst) != w {
		return fmt.Errorf("encoding: dst length %d != stack width %d", len(dst), w)
	}
	xs := [1][]float64{x}
	s.encodeRows(xs[:], dst, w, 0)
	return nil
}

// EncodeBatchInto writes row i's float encoding into
// out[i*stride+offset:], the parts back to back. stride >= offset+width
// lets several stacks share one row-major matrix. Rows run in blocks of
// BatchRowBlock across workers, every part inside each block.
func (s Stack) EncodeBatchInto(xs [][]float64, out []float64, stride, offset int) error {
	w, err := s.width()
	if err != nil || len(xs) == 0 {
		return err
	}
	if offset < 0 || stride < offset+w {
		return fmt.Errorf("encoding: stride %d cannot hold width %d at offset %d", stride, w, offset)
	}
	if len(out) < len(xs)*stride {
		return fmt.Errorf("encoding: out length %d < %d rows * stride %d", len(out), len(xs), stride)
	}
	if err := s.checkRows(xs); err != nil {
		return err
	}
	blocks := (len(xs) + encodeRowBlock - 1) / encodeRowBlock
	return par.ForEach(blocks, func(blk int) error {
		lo := blk * encodeRowBlock
		hi := min(lo+encodeRowBlock, len(xs))
		s.encodeRows(xs[lo:hi], out[lo*stride:], stride, offset)
		return nil
	})
}

// EncodeBitsBatch writes the sign bits of part i of row r's encoding
// into dst[r][i]. Rows run through the same blocked projection as the
// float kernel; bits are assembled in registers and flushed a whole
// 64-bit word at a time, so each destination must be exactly its part's
// width.
func (s Stack) EncodeBitsBatch(xs [][]float64, dst [][]*hdc.BitVector) error {
	if _, err := s.width(); err != nil {
		return err
	}
	if len(dst) != len(xs) {
		return fmt.Errorf("encoding: %d bit destinations for %d rows", len(dst), len(xs))
	}
	if err := s.checkRows(xs); err != nil {
		return err
	}
	for r, row := range dst {
		if len(row) != len(s) {
			return fmt.Errorf("encoding: row %d has %d bit destinations for %d parts", r, len(row), len(s))
		}
		for i, d := range row {
			if pt := s[i]; d.N != pt.Hi-pt.Lo {
				return fmt.Errorf("encoding: row %d part %d bit destination dim %d != range width %d", r, i, d.N, pt.Hi-pt.Lo)
			}
		}
	}
	s.encodeBitsRows(xs, dst)
	return nil
}

// encodeRows is the blocked float kernel behind every float entry point:
// row i of xs is encoded into out[i*stride+offset:], the parts back to
// back. Rows run in blocks (all of xs on a stored stack, a lookup block
// on a seeded one), whose tables are built once for every part; inside a
// block each part's range is swept in dimension tiles, four rows at a
// time, reading the plane the part loaded once per call.
//
//hd:hotpath
func (s Stack) encodeRows(xs [][]float64, out []float64, stride, offset int) {
	var acc [4][encodeDimBlock]float64
	sc, step := s.getScratch(len(xs), false)
	defer putScratch(sc)
	for r0 := 0; r0 < len(xs); r0 += step {
		blk := xs[r0:min(r0+step, len(xs))]
		sc.buildTables(blk)
		col := offset
		for pi, pt := range s {
			e, p := pt.Enc, sc.planes[pi]
			for j0 := pt.Lo; j0 < pt.Hi; j0 += encodeDimBlock {
				b, hsb := p.tile(j0, min(j0+encodeDimBlock, pt.Hi))
				for i := 0; i < len(blk); i += 4 {
					for k := range e.project(p, &sc.lookup, blk, i, j0, len(b), &acc) {
						e.activate(acc[k][:len(b)], b, hsb, out[(r0+i+k)*stride+col+j0-pt.Lo:])
					}
				}
			}
			col += pt.Hi - pt.Lo
		}
	}
}

// encodeBitsRows is the blocked sign-bit kernel behind every bit entry
// point, part i of row r into dst[r][i]. A seeded trigonometric part
// takes one row at a time: it builds the row's turn tables, then sums
// each tile's phases as wrapping turns and packs them by signTurns. A
// stored part, or a seeded Linear one, runs in row blocks as in
// encodeRows, projecting four rows at a time in float, and signWords
// packs the signs. Tiles span whole 64-bit words, so each row stores
// complete words.
//
//hd:hotpath
func (s Stack) encodeBitsRows(xs [][]float64, dst [][]*hdc.BitVector) {
	var acc [4][encodeDimBlock]float64
	sc, step := s.getScratch(len(xs), true)
	defer putScratch(sc)
	for r0 := 0; r0 < len(xs); r0 += step {
		blk := xs[r0:min(r0+step, len(xs))]
		sc.buildTables(blk)
		for pi, pt := range s {
			e, p := pt.Enc, sc.planes[pi]
			if e.w == nil && e.Kind != Linear {
				for r, x := range blk {
					sc.buildTurns(x, e.Gamma)
					for t0 := pt.Lo; t0 < pt.Hi; t0 += encodeDimBlock {
						b := p.bt[t0:min(t0+encodeDimBlock, pt.Hi)]
						sc.signTurns(p.idx[t0:], e.OutDim, b, dst[r0+r][pi].Words[(t0-pt.Lo)/64:], sinMask(e.Kind))
					}
				}
				continue
			}
			for t0 := pt.Lo; t0 < pt.Hi; t0 += encodeDimBlock {
				b, word := p.bt[t0:min(t0+encodeDimBlock, pt.Hi)], (t0-pt.Lo)/64
				for i := 0; i < len(blk); i += 4 {
					for k := range e.project(p, &sc.lookup, blk, i, t0, len(b), &acc) {
						e.signWords(acc[k][:len(b)], b, dst[r0+i+k][pi].Words[word:])
					}
				}
			}
		}
	}
}
