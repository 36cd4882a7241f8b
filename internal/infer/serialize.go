package infer

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"

	"boosthd/internal/boosthd"
	"boosthd/internal/encoding"
	"boosthd/internal/hdc"
	"boosthd/internal/wire"
)

// binaryWire is the gob wire format of a quantized binary snapshot: the
// ensemble configuration needed to rebuild the encoder stack plus the
// packed sign planes and confidence masks, learner-major. Mask popcounts
// and the float class memory do not travel — the former is derived on
// load, the latter is exactly what this format exists to leave behind.
type binaryWire struct {
	Cfg     boosthd.Config
	InDim   int
	Gamma   float64
	Alphas  []float64
	SegDims []int
	Class   [][]*hdc.BitVector // [learner][class] sign planes
	Mask    [][]*hdc.BitVector // [learner][class] confidence masks
}

// Save serializes the current quantized snapshot to w in framed gob
// format. The snapshot is immutable after construction, so no locks are
// needed: a concurrent Refresh swaps the pointer under new readers while
// this save keeps encoding the snapshot it loaded. The resulting blob
// cold-loads through LoadBinary without re-running Quantize — no float
// class memory travels or is reconstructed.
func (bm *BinaryModel) Save(w io.Writer) error {
	// Catch up with any float-model mutation first (no-op when frozen),
	// or a save issued after Fit/fault injection would persist the
	// pre-mutation thresholds the predict paths no longer serve.
	bm.syncQuantization()
	qz := bm.snap.Load()
	m := bm.model
	bw := binaryWire{
		Cfg:     m.Cfg,
		InDim:   m.InputDim(),
		Gamma:   m.Gamma(),
		Alphas:  append([]float64(nil), m.Alphas...),
		SegDims: make([]int, len(m.Learners)),
		Class:   make([][]*hdc.BitVector, len(m.Learners)),
		Mask:    make([][]*hdc.BitVector, len(m.Learners)),
	}
	// The wire's per-class bit vectors alias the snapshot's plane blocks,
	// which are immutable once installed; the encoder only reads them.
	for i, l := range m.Learners {
		bw.SegDims[i] = l.Dim
		for c := range qz.maskOnes[i] {
			sign, mask := qz.words(i, c)
			bw.Class[i] = append(bw.Class[i], &hdc.BitVector{N: l.Dim, Words: sign})
			bw.Mask[i] = append(bw.Mask[i], &hdc.BitVector{N: l.Dim, Words: mask})
		}
	}
	version := byte(wire.Version1)
	if m.Cfg.Projection != encoding.ProjStored {
		version = wire.VersionSeeded
	}
	if err := wire.WriteHeaderVersion(w, wire.MagicBinary, version); err != nil {
		return fmt.Errorf("infer: save binary: %w", err)
	}
	if err := gob.NewEncoder(w).Encode(&bw); err != nil {
		return fmt.Errorf("infer: save binary: %w", err)
	}
	return nil
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (bm *BinaryModel) MarshalBinary() ([]byte, error) {
	var buf bytes.Buffer
	if err := bm.Save(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// checkPlanes validates one learner's decoded bit planes against the
// stored geometry, so a truncated or corrupted blob fails at load time
// instead of panicking inside the scoring loop. Bits past the segment
// width in a plane's last word are rejected too: the scoring kernels
// would count them as dimensions.
func checkPlanes(what string, planes []*hdc.BitVector, classes, dim int) error {
	if len(planes) != classes {
		return fmt.Errorf("%d %s planes for %d classes", len(planes), what, classes)
	}
	words := (dim + 63) / 64
	for c, p := range planes {
		if p == nil || p.N != dim || len(p.Words) != words {
			return fmt.Errorf("class %d %s plane does not match segment dim %d", c, what, dim)
		}
		if r := dim % 64; r != 0 && p.Words[words-1]>>uint(r) != 0 {
			return fmt.Errorf("class %d %s plane sets bits past segment dim %d", c, what, dim)
		}
	}
	return nil
}

// LoadBinary reconstructs a quantized binary model previously written by
// BinaryModel.Save. The returned model is frozen: it serves the stored
// snapshot through an ensemble shell (encoder stack + partition rebuilt
// from the stored configuration, zeroed float learners) and never
// re-quantizes. Use it for deployment serving; retraining or fault
// injection requires the full float checkpoint.
func LoadBinary(r io.Reader) (*BinaryModel, error) {
	v, body, err := wire.ReadHeader(r, wire.MagicBinary)
	if err != nil {
		return nil, fmt.Errorf("infer: load binary: %w", err)
	}
	var bw binaryWire
	if err := gob.NewDecoder(body).Decode(&bw); err != nil {
		return nil, fmt.Errorf("infer: load binary: %w", err)
	}
	if err := wire.CheckDims(bw.Cfg.TotalDim, bw.InDim, bw.Cfg.Classes, bw.Cfg.NumLearners); err != nil {
		return nil, fmt.Errorf("infer: load binary: %w", err)
	}
	if err := boosthd.CheckProjectionWire(v, bw.Cfg.Projection); err != nil {
		return nil, fmt.Errorf("infer: load binary: %w", err)
	}
	shell, err := boosthd.Rehydrate(bw.Cfg, bw.InDim, bw.Gamma)
	if err != nil {
		return nil, fmt.Errorf("infer: load binary: %w", err)
	}
	nl := bw.Cfg.NumLearners
	if len(bw.Alphas) != nl {
		return nil, fmt.Errorf("infer: load binary: %d alphas for %d learners", len(bw.Alphas), nl)
	}
	if len(bw.SegDims) != nl || len(bw.Class) != nl || len(bw.Mask) != nl {
		return nil, fmt.Errorf("infer: load binary: plane counts (%d seg, %d class, %d mask) for %d learners",
			len(bw.SegDims), len(bw.Class), len(bw.Mask), nl)
	}
	shell.Alphas = bw.Alphas
	planes := make([][]uint64, nl)
	maskOnes := make([][]float64, nl)
	versions := make([]uint64, nl)
	for i, l := range shell.Learners {
		if bw.SegDims[i] != l.Dim {
			return nil, fmt.Errorf("infer: load binary: learner %d segment dim %d does not match partition dim %d",
				i, bw.SegDims[i], l.Dim)
		}
		if err := checkPlanes("sign", bw.Class[i], bw.Cfg.Classes, l.Dim); err != nil {
			return nil, fmt.Errorf("infer: load binary: learner %d: %w", i, err)
		}
		if err := checkPlanes("mask", bw.Mask[i], bw.Cfg.Classes, l.Dim); err != nil {
			return nil, fmt.Errorf("infer: load binary: learner %d: %w", i, err)
		}
		// The learner's class-major block: each class's sign words, then
		// its mask words.
		maskOnes[i] = make([]float64, bw.Cfg.Classes)
		planes[i] = make([]uint64, 0, 2*bw.Cfg.Classes*((l.Dim+63)/64))
		for c, mask := range bw.Mask[i] {
			ones := mask.Ones()
			if ones == 0 {
				return nil, fmt.Errorf("infer: load binary: learner %d class %d has an empty confidence mask", i, c)
			}
			maskOnes[i][c] = float64(ones)
			planes[i] = append(append(planes[i], bw.Class[i][c].Words...), mask.Words...)
		}
		versions[i] = l.Version()
	}
	bm := &BinaryModel{model: shell, frozen: true}
	bm.snap.Store(&quantization{planes: planes, maskOnes: maskOnes, versions: versions})
	return bm, nil
}
