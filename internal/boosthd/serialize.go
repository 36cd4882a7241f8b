package boosthd

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"math"

	"boosthd/internal/encoding"
	"boosthd/internal/hdc"
	"boosthd/internal/onlinehd"
	"boosthd/internal/wire"
)

// wireVersionFor picks the lowest header version whose feature set the
// configuration needs: legacy stored-matrix configs stay at Version1 so
// older builds keep reading them; seeded-encoder configs are framed at
// VersionPacked — they already require a seeded-aware build, and their
// checkpoint size is dominated by the class memories now that the
// projection matrix is rematerialized, so they ship the flat packed
// class block instead of gob's per-float encoding.
func wireVersionFor(cfg Config) byte {
	if cfg.Projection != encoding.ProjStored {
		return wire.VersionPacked
	}
	return wire.Version1
}

// CheckProjectionWire validates a checkpoint's decoded projection mode
// against the header version it arrived under. Every loader that decodes
// a Config runs this before rebuilding encoders: an unknown mode means a
// newer (or foreign) writer, mode 1 is the retired seeded-stored mode,
// and a seeded mode under a version-1 frame means a writer that did not
// follow the framing contract — in every case the blob must not be
// trusted, because a build that ignored the field would silently rebuild
// the wrong encoder.
func CheckProjectionWire(version byte, p encoding.Projection) error {
	switch p {
	case encoding.ProjStored:
		return nil
	case encoding.ProjSeeded:
		if version < wire.VersionSeeded {
			return fmt.Errorf("seeded-encoder checkpoint framed at header version %d (need >= %d); foreign or corrupted writer",
				version, wire.VersionSeeded)
		}
		return nil
	case 1:
		return fmt.Errorf("projection mode 1 (seeded-stored) is retired; retrain with the seeded mode, which encodes bit-identically")
	default:
		return fmt.Errorf("unknown projection mode %d; written by a newer build?", int(p))
	}
}

// ensembleWire is the gob wire format of a trained BoostHD ensemble. Like
// the OnlineHD format it ships only the learned state — the encoder stack
// is rebuilt deterministically from the configuration and the stored
// base bandwidth. On disk the gob stream is framed by a
// wire.MagicEnsemble + version header.
type ensembleWire struct {
	Cfg    Config
	InDim  int
	Gamma  float64 // resolved base bandwidth used at training time
	Alphas []float64
	Class  [][]hdc.Vector // [learner][class]; nil when Packed carries the memory
	// Packed is the VersionPacked class-memory layout: every class
	// vector's float64 bits little-endian, learner-major then
	// class-major, with widths implied by the configuration's dimension
	// partition. gob spends ~9 bytes per high-entropy float64 plus
	// nested slice headers; the flat block spends exactly 8 per
	// component — the bits are identical after load, only the framing
	// shrinks. Exactly one of Class and Packed is populated.
	Packed []byte
}

// appendPacked appends one learner's class memory to dst in the Packed
// layout; unpackClass reverses a whole block against the expected
// per-learner widths, checking the block length before it allocates.
func appendPacked(dst []byte, class []hdc.Vector) []byte {
	for _, cv := range class {
		for _, x := range cv {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
		}
	}
	return dst
}

// unpackClass allocates each learner's class memory as one block, so
// every class vector is allocated once.
func unpackClass(packed []byte, dims []int, classes int) ([][]hdc.Vector, error) {
	n := 0
	for _, dim := range dims {
		n += 8 * classes * dim
	}
	if len(packed) != n {
		return nil, fmt.Errorf("packed class block is %d bytes, geometry needs %d", len(packed), n)
	}
	class := make([][]hdc.Vector, len(dims))
	off := 0
	for i, dim := range dims {
		block := make([]float64, classes*dim)
		for j := range block {
			block[j] = math.Float64frombits(binary.LittleEndian.Uint64(packed[off:]))
			off += 8
		}
		class[i] = make([]hdc.Vector, classes)
		for c := range class[i] {
			class[i][c] = block[c*dim : (c+1)*dim : (c+1)*dim]
		}
	}
	return class, nil
}

// Save serializes the ensemble to w in framed gob format. Each learner's
// class hypervectors are copied (or packed) under that learner's read
// lock, so a save that overlaps Fit or InjectClassFaults on other
// goroutines records a consistent per-learner snapshot — never a torn
// vector, and never an aliased one that later mutation could reach. The
// slow gob encode runs after every lock is released.
func (m *Model) Save(w io.Writer) error {
	ew := ensembleWire{
		Cfg:    m.Cfg,
		InDim:  m.inputDim,
		Gamma:  m.gamma,
		Alphas: append([]float64(nil), m.Alphas...),
	}
	ver := wireVersionFor(m.Cfg)
	if ver >= wire.VersionPacked {
		ew.Packed = make([]byte, 0, 8*m.Cfg.TotalDim*m.Cfg.Classes)
	} else {
		ew.Class = make([][]hdc.Vector, len(m.Learners))
	}
	for i, l := range m.Learners {
		l.ReadClass(func(class []hdc.Vector, _ uint64) {
			if ew.Packed != nil {
				ew.Packed = appendPacked(ew.Packed, class)
				return
			}
			cp := make([]hdc.Vector, len(class))
			for c, cv := range class {
				cp[c] = cv.Clone()
			}
			ew.Class[i] = cp
		})
	}
	if err := wire.WriteHeaderVersion(w, wire.MagicEnsemble, ver); err != nil {
		return fmt.Errorf("boosthd: save: %w", err)
	}
	if err := gob.NewEncoder(w).Encode(&ew); err != nil {
		return fmt.Errorf("boosthd: save: %w", err)
	}
	return nil
}

// Rehydrate builds an untrained model shell for a stored configuration:
// the encoder stack and dimension partition reconstructed from (cfg,
// inDim, gamma), zeroed learners, no alphas. Checkpoint loaders populate
// the learned state afterwards; the binary-snapshot loader serves from
// the shell directly (it only needs the encoder, partition, and config).
func Rehydrate(cfg Config, inDim int, gamma float64) (*Model, error) {
	if gamma <= 0 {
		return nil, fmt.Errorf("boosthd: invalid stored gamma %v", gamma)
	}
	if cfg.NumLearners < 1 {
		return nil, fmt.Errorf("boosthd: invalid stored learner count %d", cfg.NumLearners)
	}
	if cfg.TotalDim < cfg.NumLearners {
		return nil, fmt.Errorf("boosthd: stored TotalDim %d < NumLearners %d", cfg.TotalDim, cfg.NumLearners)
	}
	enc, err := newEncoderStack(inDim, cfg, gamma)
	if err != nil {
		return nil, fmt.Errorf("boosthd: %w", err)
	}
	m := &Model{
		Cfg:      cfg,
		Enc:      enc,
		Learners: make([]*onlinehd.HVClassifier, cfg.NumLearners),
		segs:     partition(cfg.TotalDim, cfg.NumLearners),
		gamma:    gamma,
		inputDim: inDim,
	}
	for i := range m.Learners {
		dim := m.segs[i].hi - m.segs[i].lo
		hv, err := onlinehd.NewHVClassifier(dim, cfg.Classes, cfg.LR)
		if err != nil {
			return nil, fmt.Errorf("boosthd: learner %d: %w", i, err)
		}
		m.Learners[i] = hv
	}
	return m, nil
}

// Load reconstructs an ensemble previously written by Save. Class vectors
// are installed through each learner's lock-aware SetClass, which bumps
// the norm-cache version — a model loaded in place of one already shared
// with serving goroutines can never serve stale cached norms.
func Load(r io.Reader) (*Model, error) {
	v, body, err := wire.ReadHeader(r, wire.MagicEnsemble)
	if err != nil {
		return nil, fmt.Errorf("boosthd: load: %w", err)
	}
	var ew ensembleWire
	if err := gob.NewDecoder(body).Decode(&ew); err != nil {
		return nil, fmt.Errorf("boosthd: load: %w", err)
	}
	cfg := ew.Cfg
	if err := wire.CheckDims(cfg.TotalDim, ew.InDim, cfg.Classes, cfg.NumLearners); err != nil {
		return nil, fmt.Errorf("boosthd: load: %w", err)
	}
	if err := CheckProjectionWire(v, cfg.Projection); err != nil {
		return nil, fmt.Errorf("boosthd: load: %w", err)
	}
	if ew.Packed != nil {
		if v < wire.VersionPacked {
			return nil, fmt.Errorf("boosthd: load: packed class block framed at header version %d (need >= %d)",
				v, wire.VersionPacked)
		}
		if ew.Class != nil {
			return nil, fmt.Errorf("boosthd: load: checkpoint carries both packed and per-vector class memory")
		}
		segs := partition(cfg.TotalDim, cfg.NumLearners)
		dims := make([]int, len(segs))
		for i, s := range segs {
			dims[i] = s.hi - s.lo
		}
		class, err := unpackClass(ew.Packed, dims, cfg.Classes)
		if err != nil {
			return nil, fmt.Errorf("boosthd: load: %w", err)
		}
		ew.Class = class
	}
	if len(ew.Class) != cfg.NumLearners {
		return nil, fmt.Errorf("boosthd: load: %d learner states for %d learners",
			len(ew.Class), cfg.NumLearners)
	}
	if len(ew.Alphas) != cfg.NumLearners {
		return nil, fmt.Errorf("boosthd: load: %d alphas for %d learners",
			len(ew.Alphas), cfg.NumLearners)
	}
	m, err := Rehydrate(cfg, ew.InDim, ew.Gamma)
	if err != nil {
		return nil, fmt.Errorf("boosthd: load: %w", err)
	}
	m.Alphas = ew.Alphas
	for i, class := range ew.Class {
		if err := m.Learners[i].SetClass(class); err != nil {
			return nil, fmt.Errorf("boosthd: load: learner %d: %w", i, err)
		}
	}
	return m, nil
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (m *Model) MarshalBinary() ([]byte, error) {
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler, replacing the
// receiver's contents.
func (m *Model) UnmarshalBinary(data []byte) error {
	loaded, err := Load(bytes.NewReader(data))
	if err != nil {
		return err
	}
	*m = *loaded
	return nil
}
