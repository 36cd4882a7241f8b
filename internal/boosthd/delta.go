package boosthd

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"

	"boosthd/internal/hdc"
	"boosthd/internal/onlinehd"
	"boosthd/internal/wire"
)

// Delta is a tenant's copy-on-write override set against a shared base
// ensemble: replacement classifiers for the few learners refit on the
// tenant's own data, plus (optionally) the tenant's private ensemble
// weights. Boosting makes this the natural personalization unit — most
// learners stay shared with the population base, so a tenant's resident
// and persisted state is a handful of class memories instead of a full
// model copy.
//
// A Delta is immutable once installed in a registry or saved: retrains
// build a fresh Delta rather than mutating one that concurrent tenant
// views may still be scoring through.
type Delta struct {
	// Learners maps a base learner index to the tenant's replacement
	// classifier. Each replacement must match the base learner's segment
	// geometry (Dim, Classes); its class memory is private to the tenant.
	Learners map[int]*onlinehd.HVClassifier
	// Alphas, when non-nil, are the tenant's private ensemble weights
	// (one per base learner). nil inherits the base weights.
	Alphas []float64
}

// Indexes returns the overridden learner indexes in ascending order —
// the deterministic iteration order every consumer (quantization
// overlays, wire records, signatures) walks the map in.
func (d *Delta) Indexes() []int {
	idx := make([]int, 0, len(d.Learners))
	for i := range d.Learners {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	return idx
}

// MemoryBytes estimates the delta's resident float memory: the overridden
// class vectors plus the private alpha slice. This is the per-tenant cost
// the multi-tenant registry reports against a full model copy.
func (d *Delta) MemoryBytes() int {
	total := 8 * len(d.Alphas)
	for _, l := range d.Learners {
		total += 8 * l.Dim * l.Classes
	}
	return total
}

// WithDelta returns a tenant view of the base ensemble: the encoder
// stack, dimension partition, and every non-overridden learner are
// shared with the base (no copies), overridden learners come from the
// delta, and the alpha slice is private. The view scores bit-for-bit
// identically to a fully materialized per-tenant model built by cloning
// the base and refitting the same learners.
//
// Quarantine composition: when the base is a reliability-masked view,
// its dimension masks carry over for the learners the tenant shares —
// the tenant must not trust memory the scrubber condemned — while
// overridden learners drop the mask (their memory is the tenant's own,
// never the corrupted base planes). Likewise a base alpha of zero (a
// quarantined or boosting-rejected learner) stays zero in the tenant
// view unless the tenant overrides that learner: private alphas must
// not resurrect a learner whose shared memory is untrusted.
func (m *Model) WithDelta(d *Delta) (*Model, error) {
	if d == nil {
		return nil, fmt.Errorf("boosthd: with delta: nil delta")
	}
	if d.Alphas != nil && len(d.Alphas) != len(m.Learners) {
		return nil, fmt.Errorf("boosthd: with delta: %d alphas for %d learners", len(d.Alphas), len(m.Learners))
	}
	learners := append([]*onlinehd.HVClassifier(nil), m.Learners...)
	for i, l := range d.Learners {
		if i < 0 || i >= len(learners) {
			return nil, fmt.Errorf("boosthd: with delta: learner %d outside [0,%d)", i, len(learners))
		}
		if l == nil {
			return nil, fmt.Errorf("boosthd: with delta: nil override for learner %d", i)
		}
		if l.Dim != m.Learners[i].Dim || l.Classes != m.Learners[i].Classes {
			return nil, fmt.Errorf("boosthd: with delta: learner %d override is %dx%d, base is %dx%d",
				i, l.Dim, l.Classes, m.Learners[i].Dim, m.Learners[i].Classes)
		}
		learners[i] = l
	}
	alphas := d.Alphas
	if alphas == nil {
		alphas = m.Alphas
	}
	v := &Model{Cfg: m.Cfg, Enc: m.Enc, Learners: learners,
		Alphas: append([]float64(nil), alphas...),
		segs:   m.segs, gamma: m.gamma, inputDim: m.inputDim}
	for i := range v.Alphas {
		if m.Alphas[i] == 0 {
			if _, overridden := d.Learners[i]; !overridden {
				v.Alphas[i] = 0
			}
		}
	}
	if m.dimMasks != nil {
		masks := append([][]uint64(nil), m.dimMasks...)
		for i := range d.Learners {
			masks[i] = nil
		}
		v.dimMasks = masks
	}
	return v, nil
}

// FNV-64 constants for the base-model fingerprint fold.
const (
	fpOffset uint64 = 14695981039346656037
	fpPrime  uint64 = 1099511628211
)

// Fingerprint folds the base model's identity — configuration geometry,
// encoder parameters, and every learner's class-memory bits — into one
// 64-bit FNV digest. Tenant delta records carry it so a delta trained
// against one base is rejected loudly when replayed onto another.
//
// Alphas are deliberately excluded: a reliability quarantine (which
// zeroes alphas in a masked view) or an alphas-only reweight must not
// orphan every persisted tenant delta, and deltas that care about
// weights carry their own. A full retrain moves the class memory and
// therefore the fingerprint, which is exactly the invalidation the
// registry wants.
func (m *Model) Fingerprint() uint64 {
	h := fpOffset
	fold := func(w uint64) {
		h ^= w
		h *= fpPrime
	}
	fold(uint64(m.Cfg.TotalDim))
	fold(uint64(m.Cfg.NumLearners))
	fold(uint64(m.Cfg.Classes))
	fold(uint64(int64(m.Cfg.Seed)))
	fold(uint64(m.Cfg.Encoder))
	fold(uint64(m.Cfg.Projection))
	fold(math.Float64bits(m.Cfg.GammaSpread))
	fold(math.Float64bits(m.gamma))
	fold(uint64(m.inputDim))
	for _, l := range m.Learners {
		l.ReadClass(func(class []hdc.Vector, _ uint64) {
			for _, cv := range class {
				for _, x := range cv {
					fold(math.Float64bits(x))
				}
			}
		})
	}
	return h
}

// deltaWire is the gob payload of a tenant delta record. Unlike a full
// ensemble checkpoint it carries no Config and no encoder parameters —
// those belong to the base model the record's fingerprint pins — so a
// fleet of tenants duplicates nothing but its actual overrides. The same
// struct carries full records (BHDT: every overridden learner) and
// journal patch entries (BHDJ: only the learners a refit moved).
type deltaWire struct {
	Base    uint64 // fingerprint of the base model the delta was trained against
	Tenant  string
	Classes int
	Indexes []int // overridden learner indexes, ascending
	Dims    []int // overridden learners' segment widths, parallel to Indexes
	// Class is the Version1 class-memory layout, parallel to Indexes;
	// nil when Packed carries the memory.
	Class  [][]hdc.Vector
	Alphas []float64 // tenant alphas; nil inherits the base's
	// Epoch fences journal patches to the full record they extend: a
	// compaction rewrite stamps a fresh epoch, so patches appended before
	// the rewrite (and orphaned by a crash between the record rename and
	// the journal truncate) are skipped at replay instead of overwriting
	// newer memory with older. Old records decode it as zero — gob drops
	// unknown fields in both directions, so the field is wire-compatible.
	Epoch uint64
	// Packed is the VersionPacked class-memory layout, the one
	// ensembleWire.Packed uses: every overridden learner's class vectors
	// as float64 bits little-endian, in Indexes order then class order,
	// Dims[k] components each. At most one of Class and Packed is
	// populated; an alphas-only patch carries neither.
	Packed []byte
}

// encodeDeltaWire snapshots the learners named by indexes (a subset of
// d's overrides for a journal patch, all of them for a full record) into
// a wire payload. Each class memory is packed under its learner's read
// lock, so a save overlapping a concurrent refit records a consistent
// snapshot; the gob encode runs after every lock is released.
func encodeDeltaWire(tenant string, d *Delta, indexes []int, baseFP, epoch uint64) (*deltaWire, error) {
	dw := &deltaWire{Base: baseFP, Tenant: tenant, Epoch: epoch,
		Indexes: append([]int(nil), indexes...)}
	dw.Dims = make([]int, len(dw.Indexes))
	size := 0
	prev := -1
	for k, i := range dw.Indexes {
		if i <= prev {
			return nil, fmt.Errorf("boosthd: save delta: indexes not ascending at %d", i)
		}
		prev = i
		l, ok := d.Learners[i]
		if !ok {
			return nil, fmt.Errorf("boosthd: save delta: index %d not overridden", i)
		}
		dw.Dims[k] = l.Dim
		dw.Classes = l.Classes
		size += 8 * l.Dim * l.Classes
	}
	if size > 0 {
		dw.Packed = make([]byte, 0, size)
	}
	for _, i := range dw.Indexes {
		d.Learners[i].ReadClass(func(class []hdc.Vector, _ uint64) {
			dw.Packed = appendPacked(dw.Packed, class)
		})
	}
	if d.Alphas != nil {
		dw.Alphas = append([]float64(nil), d.Alphas...)
	}
	return dw, nil
}

// writeDeltaWire frames and encodes one record or patch.
func writeDeltaWire(w io.Writer, magic string, dw *deltaWire) error {
	if err := wire.WriteHeaderVersion(w, magic, wire.VersionPacked); err != nil {
		return err
	}
	return gob.NewEncoder(w).Encode(dw)
}

// SaveDeltaStamped writes a full tenant delta record to w, framed under
// the BHDT magic and carrying epoch — the value journal patches extending
// this record must echo to be replayed.
// Records are written at wire.VersionPacked; builds from before the
// packed layout reject them loudly (they find no class memory), so a
// rollback needs the records rewritten.
func SaveDeltaStamped(w io.Writer, tenant string, d *Delta, baseFP, epoch uint64) error {
	if d == nil {
		return fmt.Errorf("boosthd: save delta: nil delta")
	}
	dw, err := encodeDeltaWire(tenant, d, d.Indexes(), baseFP, epoch)
	if err != nil {
		return err
	}
	if err := writeDeltaWire(w, wire.MagicTenant, dw); err != nil {
		return fmt.Errorf("boosthd: save delta: %w", err)
	}
	return nil
}

// SaveDeltaPatch writes a journal patch entry to w, framed under the
// BHDJ magic: only the learners named by indexes (the ones a refit
// actually moved) plus the tenant alphas, fenced to the base fingerprint
// and the epoch of the full record the patch extends. Steady-state refit
// I/O is therefore proportional to learners moved, not to the tenant's
// total override set.
func SaveDeltaPatch(w io.Writer, tenant string, d *Delta, indexes []int, baseFP, epoch uint64) error {
	if d == nil {
		return fmt.Errorf("boosthd: save delta patch: nil delta")
	}
	if len(indexes) == 0 && d.Alphas == nil {
		return fmt.Errorf("boosthd: save delta patch: empty patch")
	}
	dw, err := encodeDeltaWire(tenant, d, indexes, baseFP, epoch)
	if err != nil {
		return err
	}
	if err := writeDeltaWire(w, wire.MagicTenantJournal, dw); err != nil {
		return fmt.Errorf("boosthd: save delta patch: %w", err)
	}
	return nil
}

// ErrBaseMismatch marks a tenant delta record whose base fingerprint
// does not match the serving base — the record was trained against a
// different model. Registries match it to fall back to the shared base
// (loudly, with counters) instead of failing the tenant's requests.
var ErrBaseMismatch = errors.New("boosthd: delta trained against a different base model")

// readDeltaWire consumes one framed record or patch under magic and
// decodes its payload, after wire.CheckPayload has checked that its gob
// framing fits the bytes there are: a load never allocates more than the
// blob accounts for.
func readDeltaWire(r io.Reader, magic string) (*deltaWire, byte, error) {
	v, body, err := wire.ReadHeader(r, magic)
	if err != nil {
		return nil, 0, err
	}
	payload, err := wire.CheckPayload(body)
	if err != nil {
		return nil, 0, err
	}
	var dw deltaWire
	if err := gob.NewDecoder(payload).Decode(&dw); err != nil {
		return nil, 0, err
	}
	return &dw, v, nil
}

// decodeDeltaWire validates a decoded wire payload against base and
// rebuilds the Delta it names. Validation is identical for full records
// and journal patches, in either class-memory layout: the fingerprint
// must match, indexes must be strictly ascending base learner indexes,
// and every override must match its base learner's geometry. All of it,
// and the packed block's length, is checked before any class memory is
// allocated; the decoded vectors are then adopted, not copied. As in
// Load, a packed block framed below VersionPacked, or a payload carrying
// both layouts, is rejected: no conforming writer produces either.
func decodeDeltaWire(dw *deltaWire, version byte, base *Model, baseFP uint64) (*Delta, error) {
	if dw.Base != baseFP {
		return nil, fmt.Errorf("boosthd: load delta: record for base %016x, serving base is %016x: %w",
			dw.Base, baseFP, ErrBaseMismatch)
	}
	if len(dw.Dims) != len(dw.Indexes) {
		return nil, fmt.Errorf("boosthd: load delta: %d indexes, %d dims", len(dw.Indexes), len(dw.Dims))
	}
	if dw.Alphas != nil && len(dw.Alphas) != len(base.Learners) {
		return nil, fmt.Errorf("boosthd: load delta: %d alphas for %d learners", len(dw.Alphas), len(base.Learners))
	}
	prev := -1
	for k, i := range dw.Indexes {
		if i <= prev || i >= len(base.Learners) {
			return nil, fmt.Errorf("boosthd: load delta: learner index %d invalid (prev %d, %d learners)",
				i, prev, len(base.Learners))
		}
		prev = i
		bl := base.Learners[i]
		if dw.Dims[k] != bl.Dim || dw.Classes != bl.Classes {
			return nil, fmt.Errorf("boosthd: load delta: learner %d is %dx%d, base is %dx%d",
				i, dw.Dims[k], dw.Classes, bl.Dim, bl.Classes)
		}
	}
	class := dw.Class
	if dw.Packed != nil {
		if version < wire.VersionPacked {
			return nil, fmt.Errorf("boosthd: load delta: packed class block framed at header version %d (need >= %d)",
				version, wire.VersionPacked)
		}
		if dw.Class != nil {
			return nil, fmt.Errorf("boosthd: load delta: record carries both packed and per-vector class memory")
		}
		var err error
		if class, err = unpackClass(dw.Packed, dw.Dims, dw.Classes); err != nil {
			return nil, fmt.Errorf("boosthd: load delta: %w", err)
		}
	}
	if len(class) != len(dw.Indexes) {
		return nil, fmt.Errorf("boosthd: load delta: %d indexes, %d class blocks", len(dw.Indexes), len(class))
	}
	d := &Delta{Learners: make(map[int]*onlinehd.HVClassifier, len(dw.Indexes))}
	for k, i := range dw.Indexes {
		if len(class[k]) != dw.Classes {
			return nil, fmt.Errorf("boosthd: load delta: learner %d carries %d class vectors, want %d",
				i, len(class[k]), dw.Classes)
		}
		hv, err := onlinehd.NewHVClassifierFrom(dw.Dims[k], class[k], base.Cfg.LR)
		if err != nil {
			return nil, fmt.Errorf("boosthd: load delta: learner %d: %w", i, err)
		}
		d.Learners[i] = hv
	}
	if dw.Alphas != nil {
		d.Alphas = append([]float64(nil), dw.Alphas...)
	}
	return d, nil
}

// LoadDeltaStamped reconstructs a tenant delta record against base and
// returns the record's epoch — the fence value journal patches extending
// the record must carry. baseFP is the caller's cached base.Fingerprint();
// a record carrying any other fingerprint is rejected loudly — serving a
// delta trained against a different base would silently blend
// incompatible memories, the one failure mode a healthcare deployment
// must never absorb quietly.
// Records written before epochs existed decode as epoch zero; records of
// either class-memory layout load to the same bits.
func LoadDeltaStamped(r io.Reader, base *Model, baseFP uint64) (string, *Delta, uint64, error) {
	dw, v, err := readDeltaWire(r, wire.MagicTenant)
	if err != nil {
		return "", nil, 0, fmt.Errorf("boosthd: load delta: %w", err)
	}
	d, err := decodeDeltaWire(dw, v, base, baseFP)
	if err != nil {
		return "", nil, 0, err
	}
	return dw.Tenant, d, dw.Epoch, nil
}

// LoadDeltaPatch reads one journal patch entry. A patch whose epoch does
// not match wantEpoch is a stale leftover from before a compaction
// rewrite (a crash can orphan them between the record rename and the
// journal truncate): it is skipped without validation — matched reports
// false and every other return is zero. Patches from the current epoch
// are validated as strictly as full records; their failures are loud.
func LoadDeltaPatch(r io.Reader, base *Model, baseFP, wantEpoch uint64) (tenant string, d *Delta, matched bool, err error) {
	dw, v, err := readDeltaWire(r, wire.MagicTenantJournal)
	if err != nil {
		return "", nil, false, fmt.Errorf("boosthd: load delta patch: %w", err)
	}
	if dw.Epoch != wantEpoch {
		return "", nil, false, nil
	}
	d, err = decodeDeltaWire(dw, v, base, baseFP)
	if err != nil {
		return "", nil, false, err
	}
	return dw.Tenant, d, true, nil
}

// Merge applies a journal patch onto d in place: patched learners
// replace d's overrides for the same index, and a non-nil patch alpha
// slice replaces d's. Used only while materializing a load — installed
// deltas stay immutable.
func (d *Delta) Merge(patch *Delta) {
	if patch == nil {
		return
	}
	if d.Learners == nil {
		d.Learners = make(map[int]*onlinehd.HVClassifier, len(patch.Learners))
	}
	for i, l := range patch.Learners {
		d.Learners[i] = l
	}
	if patch.Alphas != nil {
		d.Alphas = patch.Alphas
	}
}
