// Package wire frames the repo's gob checkpoint formats with a magic +
// version header so checkpoints are self-identifying: loading an
// ensemble checkpoint as an OnlineHD model (or vice versa) fails with a
// type error instead of gob silently decoding the fields the two wire
// structs happen to share, and checkpoints written by a newer format
// revision fail loudly instead of mis-decoding.
//
// Every magic is four bytes and shares the "BHD" prefix; the byte after
// the magic is the format version. A stream without the prefix — such as
// a headerless gob blob from before the framing existed — is rejected.
package wire

import (
	"bytes"
	"fmt"
	"io"
)

// Checkpoint magics. The fourth byte discriminates the payload type.
const (
	// MagicEnsemble frames a BoostHD ensemble checkpoint (boosthd.Save).
	MagicEnsemble = "BHDE"
	// MagicOnlineHD frames an OnlineHD model checkpoint (onlinehd.Save).
	MagicOnlineHD = "BHDO"
	// MagicBinary frames a quantized binary snapshot (infer SaveBinary).
	MagicBinary = "BHDB"
	// MagicTenant frames a per-tenant delta record (boosthd.SaveDelta):
	// the copy-on-write overrides a tenant holds against a shared base
	// model — overridden learners' class memory plus tenant alphas, keyed
	// to the base model's fingerprint so a delta can never be replayed
	// onto a base it was not trained against.
	MagicTenant = "BHDT"
	// MagicTenantJournal frames one append-journal patch entry
	// (boosthd.SaveDeltaPatch): the changed-learner subset of a tenant
	// delta, keyed to both the base fingerprint and the epoch of the full
	// BHDT record it extends. The distinct magic keeps a patch from ever
	// decoding as a full record (or vice versa) if files are misfiled.
	MagicTenantJournal = "BHDJ"
)

// prefix is shared by every magic; a stream starting with it but not
// matching the expected magic is some other checkpoint type.
const prefix = "BHD"

// Header versions; 0 is never valid.
const (
	// Version1 is the original framed format: stored-matrix encoder
	// configurations only.
	Version1 = 1
	// VersionSeeded adds the seeded-encoder projection mode to the
	// configuration payload. gob silently drops fields it does not know,
	// so a pre-seeded build fed a seeded checkpoint at version 1 would
	// decode it into a legacy stored-matrix encoder and serve garbage —
	// seeded checkpoints are framed at this version precisely so such
	// builds reject them with a loud "newer build?" error instead.
	VersionSeeded = 2
	// VersionPacked moves the ensemble class memory into a flat
	// fixed-width block instead of gob's per-element float encoding —
	// the class memories dominate seeded-float checkpoint size now that
	// the projection matrix is rematerialized, and gob spends ~9 bytes
	// per high-entropy float64 where the flat block spends exactly 8.
	// The bits are identical after load; only the framing shrinks.
	VersionPacked = 3
	// Version is the newest header version this build understands.
	Version = VersionPacked
)

// headerLen is magic (4 bytes) plus the version byte.
const headerLen = 5

// WriteHeader emits the framing header for a checkpoint of the given
// magic at Version1 — the compatible framing for payloads that use no
// newer-version features. Savers whose payload requires a newer revision
// (seeded-encoder configs) use WriteHeaderVersion.
func WriteHeader(w io.Writer, magic string) error {
	return WriteHeaderVersion(w, magic, Version1)
}

// WriteHeaderVersion emits the framing header at an explicit version.
// Writing the lowest version whose feature set the payload needs keeps
// old builds able to read every checkpoint they can represent.
func WriteHeaderVersion(w io.Writer, magic string, version byte) error {
	if len(magic) != 4 || magic[:3] != prefix {
		return fmt.Errorf("wire: invalid magic %q", magic)
	}
	if version == 0 || version > Version {
		return fmt.Errorf("wire: cannot write header version %d (supported 1..%d)", version, Version)
	}
	if _, err := w.Write(append([]byte(magic), version)); err != nil {
		return fmt.Errorf("wire: write header: %w", err)
	}
	return nil
}

// ReadHeader consumes the framing header from r, verifying it matches
// the expected magic at a supported version, and returns the version
// together with the reader positioned at the gob payload. A stream that
// does not start with a complete header is rejected.
func ReadHeader(r io.Reader, magic string) (version byte, body io.Reader, err error) {
	head := make([]byte, headerLen)
	n, err := io.ReadFull(r, head)
	if err != nil && err != io.ErrUnexpectedEOF && err != io.EOF {
		return 0, nil, fmt.Errorf("wire: read header: %w", err)
	}
	if n < headerLen || string(head[:3]) != prefix {
		return 0, nil, fmt.Errorf("wire: missing %s header: not a %s checkpoint", magic, describe(magic))
	}
	if got := string(head[:4]); got != magic {
		return 0, nil, fmt.Errorf("wire: checkpoint type %s, want %s (%s)",
			describe(got), magic, describe(magic))
	}
	v := head[4]
	if v == 0 || v > Version {
		return 0, nil, fmt.Errorf("wire: checkpoint format version %d not supported (max %d); written by a newer build?",
			v, Version)
	}
	return v, r, nil
}

// Checkpoint sanity bounds. A corrupted or hostile blob can carry
// arbitrary dimension fields, and the loaders rebuild encoder stacks
// whose allocations scale with dim*features — unchecked, a few flipped
// bits in a varint turn a load into a multi-gigabyte allocation (or an
// OOM kill). Every loader funnels its decoded geometry through
// CheckDims before allocating anything derived from it.
const (
	// MaxDim bounds the hyperspace dimensionality a checkpoint may
	// declare (paper scale is 1e4; 4M leaves two orders of headroom).
	MaxDim = 1 << 22
	// MaxFeatures bounds the raw feature width.
	MaxFeatures = 1 << 20
	// MaxClasses bounds the label count.
	MaxClasses = 1 << 16
	// MaxLearners bounds the ensemble size.
	MaxLearners = 1 << 16
	// MaxProjection bounds dim*features — the dominant allocation (the
	// encoder's projection matrix, 8 bytes per entry: 512 MiB at the
	// cap, ~100x the paper-scale setup).
	MaxProjection = 1 << 26
)

// CheckDims validates a checkpoint's declared geometry against the
// sanity bounds. learners may be 1 for single-model formats.
func CheckDims(dim, features, classes, learners int) error {
	switch {
	case dim < 1 || dim > MaxDim:
		return fmt.Errorf("wire: checkpoint dimension %d outside [1,%d]", dim, MaxDim)
	case features < 1 || features > MaxFeatures:
		return fmt.Errorf("wire: checkpoint feature width %d outside [1,%d]", features, MaxFeatures)
	case classes < 2 || classes > MaxClasses:
		return fmt.Errorf("wire: checkpoint class count %d outside [2,%d]", classes, MaxClasses)
	case learners < 1 || learners > MaxLearners:
		return fmt.Errorf("wire: checkpoint learner count %d outside [1,%d]", learners, MaxLearners)
	case int64(dim)*int64(features) > MaxProjection:
		return fmt.Errorf("wire: checkpoint projection %d x %d exceeds the %d-entry bound", dim, features, MaxProjection)
	}
	return nil
}

// describe names a magic for error messages.
func describe(magic string) string {
	switch magic {
	case MagicEnsemble:
		return "BoostHD ensemble"
	case MagicOnlineHD:
		return "OnlineHD model"
	case MagicBinary:
		return "quantized binary snapshot"
	case MagicTenant:
		return "tenant delta record"
	case MagicTenantJournal:
		return "tenant delta journal patch"
	default:
		return fmt.Sprintf("unknown %q", magic)
	}
}

// CheckPayload checks the gob message framing of the rest of a framed
// checkpoint before a decoder sees it, and returns a reader positioned
// at the payload: every gob message is a byte count followed by that
// many bytes, and a count running past the end of the payload is
// rejected here. gob itself allocates a buffer for a declared count (up
// to 10 MiB at a time) before it finds the stream short, so one flipped
// bit in a count would make a ten-byte blob cost megabytes to reject. A
// *bytes.Reader is checked in place; any other reader is read into
// memory first.
func CheckPayload(r io.Reader) (*bytes.Reader, error) {
	br, ok := r.(*bytes.Reader)
	if !ok {
		b, err := io.ReadAll(r)
		if err != nil {
			return nil, fmt.Errorf("wire: read payload: %w", err)
		}
		br = bytes.NewReader(b)
	}
	end := br.Size()
	var buf [9]byte
	for off := end - int64(br.Len()); off < end; {
		// The range read lies inside the reader, so ReadAt fills it.
		n, _ := br.ReadAt(buf[:min(int64(len(buf)), end-off)], off)
		count, w := gobUint(buf[:n])
		if w == 0 || count > uint64(end-off-int64(w)) {
			return nil, fmt.Errorf("wire: gob message at payload byte %d overruns the payload", off)
		}
		off += int64(w) + int64(count)
	}
	return br, nil
}

// gobUint decodes a gob unsigned integer from the front of b, returning
// it and its encoded width, or width 0 when b does not start with one:
// values below 128 are one byte, larger ones a negated byte count and
// then that many big-endian bytes.
func gobUint(b []byte) (uint64, int) {
	if b[0] < 0x80 {
		return uint64(b[0]), 1
	}
	n := -int(int8(b[0]))
	if n > 8 || len(b) <= n {
		return 0, 0
	}
	var v uint64
	for _, c := range b[1 : 1+n] {
		v = v<<8 | uint64(c)
	}
	return v, 1 + n
}
