package onlinehd

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"

	"boosthd/internal/encoding"
	"boosthd/internal/hdc"
	"boosthd/internal/wire"
)

// modelWire is the gob wire format of a trained OnlineHD model. The
// encoder is reconstructed from its configuration (it is deterministic in
// the seed), so only the learned class hypervectors travel. On disk the
// gob stream is framed by a wire.MagicOnlineHD + version header.
type modelWire struct {
	Cfg   Config
	InDim int
	Gamma float64
	Class []hdc.Vector
}

// Save serializes the model to w in framed gob format. The class
// hypervectors are deep-copied under the classifier's read lock, so
// saving while Fit or fault injection mutates the model on other
// goroutines writes a consistent (never torn, never aliased) snapshot;
// the slow gob encode then runs outside the lock.
func (m *Model) Save(w io.Writer) error {
	mw := modelWire{
		Cfg:   m.Cfg,
		InDim: m.Enc.InDim,
		Gamma: m.Enc.Gamma,
	}
	m.HV.ReadClass(func(class []hdc.Vector, _ uint64) {
		mw.Class = make([]hdc.Vector, len(class))
		for i, cv := range class {
			mw.Class[i] = cv.Clone()
		}
	})
	if err := wire.WriteHeader(w, wire.MagicOnlineHD); err != nil {
		return fmt.Errorf("onlinehd: save: %w", err)
	}
	if err := gob.NewEncoder(w).Encode(&mw); err != nil {
		return fmt.Errorf("onlinehd: save: %w", err)
	}
	return nil
}

// Load reconstructs a model previously written by Save. Class vectors are
// installed through the lock-aware SetClass, which bumps the norm-cache
// version — a model loaded in place of one already shared with serving
// goroutines can never serve stale cached norms.
func Load(r io.Reader) (*Model, error) {
	_, body, err := wire.ReadHeader(r, wire.MagicOnlineHD)
	if err != nil {
		return nil, fmt.Errorf("onlinehd: load: %w", err)
	}
	var mw modelWire
	if err := gob.NewDecoder(body).Decode(&mw); err != nil {
		return nil, fmt.Errorf("onlinehd: load: %w", err)
	}
	if err := wire.CheckDims(mw.Cfg.Dim, mw.InDim, mw.Cfg.Classes, 1); err != nil {
		return nil, fmt.Errorf("onlinehd: load: %w", err)
	}
	enc, err := encoding.NewWithGamma(mw.InDim, mw.Cfg.Dim, mw.Cfg.Encoder, mw.Gamma, mw.Cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("onlinehd: load: %w", err)
	}
	hv, err := NewHVClassifier(mw.Cfg.Dim, mw.Cfg.Classes, mw.Cfg.LR)
	if err != nil {
		return nil, fmt.Errorf("onlinehd: load: %w", err)
	}
	if err := hv.SetClass(mw.Class); err != nil {
		return nil, fmt.Errorf("onlinehd: load: %w", err)
	}
	return &Model{Cfg: mw.Cfg, Enc: enc, HV: hv}, nil
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
