package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"boosthd/internal/boosthd"
	"boosthd/internal/hdc"
	"boosthd/internal/onlinehd"
	"boosthd/internal/wire"
)

// ErrNoDelta is returned by a DeltaStore whose tenant has no persisted
// delta — the tenant serves the shared base model. It is the registry's
// cheap, expected miss, not a fault.
var ErrNoDelta = errors.New("serve: tenant has no delta")

// DeltaStore is the per-tenant checkpoint store behind the registry's
// LRU: cold loads come from it, and every installed delta is written
// through so eviction can always drop a resident view without losing
// tenant state. Implementations must be safe for concurrent use.
type DeltaStore interface {
	// Load reconstructs tenant's delta against base (whose cached
	// fingerprint is baseFP). ErrNoDelta means the tenant has none;
	// boosthd.ErrBaseMismatch means a record exists but was trained
	// against a different base.
	Load(tenant string, base *boosthd.Model, baseFP uint64) (*boosthd.Delta, error)
	// Save persists tenant's delta keyed to baseFP.
	Save(tenant string, d *boosthd.Delta, baseFP uint64) error
}

// DeltaCompactor is the optional compaction face of a DeltaStore. The
// registry's scrub pass type-asserts for it and folds each resident
// tenant's journal back into one full record, so replay cost and journal
// size stay bounded without any refit traffic.
type DeltaCompactor interface {
	// Compact rewrites tenant's record from d (the caller's resident
	// snapshot, keyed to baseFP) and truncates its journal, reporting
	// whether a rewrite happened. A store that can tell the snapshot is
	// stale — a newer save landed after the caller snapshotted — must
	// decline (false, nil) rather than roll the record back.
	Compact(tenant string, d *boosthd.Delta, baseFP uint64) (bool, error)
}

// DefaultCompactThreshold is the journal length at which a save folds
// the journal back into a full record instead of appending one more
// patch. Eight keeps worst-case replay to a handful of patch decodes
// while still amortizing the full-record write across several refits.
const DefaultCompactThreshold = 8

// FileDeltaStore persists one BHDT record per tenant under a directory
// (<tenant>.bhdt) plus an append journal of changed-learner patches
// (<tenant>.bhdtj): a refit that moved k of a tenant's n overridden
// learners appends a k-learner patch instead of rewriting all n, so
// steady-state refit I/O is proportional to learners moved. The journal
// folds back into the full record when it reaches the compaction
// threshold, when the base fingerprint moves, when the override set
// shrinks, or when the registry's scrub pass calls Compact. Tenant IDs
// are validated by the registry before they reach the store, so the
// name can never traverse out of the root.
//
// Crash safety: full records are written temp+rename, with the temp file
// synced before the rename and the directory after it (a crashed rewrite
// leaves the previous record intact); each journal patch is appended in
// a single write and carries the epoch of the record it extends, so a
// torn tail is dropped at replay and patches orphaned by a crash between
// a record rename and its journal truncate are fenced off by epoch.
type FileDeltaStore struct {
	dir       string
	threshold int

	mu      sync.Mutex
	tenants map[string]*tenantRecord
}

// tenantRecord is the store's in-memory digest of a tenant's persisted
// state: what the latest full record + journal hold, so the next Save
// can diff against it and append only what moved. known is false until
// a Save or Load has observed the on-disk state (e.g. after a restart);
// an unknown tenant always gets a full rewrite.
type tenantRecord struct {
	mu      sync.Mutex
	known   bool
	fp      uint64
	epoch   uint64
	entries int            // journal patches since the last full write
	learner map[int]uint64 // per-override digest of the persisted class memory
	alphas  uint64         // digest of the persisted alpha slice
}

// NewFileDeltaStore opens a journaling delta store rooted at dir with
// the default compaction threshold.
func NewFileDeltaStore(dir string) *FileDeltaStore {
	return &FileDeltaStore{dir: dir, threshold: DefaultCompactThreshold,
		tenants: make(map[string]*tenantRecord)}
}

// Dir returns the store's root directory.
func (fs *FileDeltaStore) Dir() string { return fs.dir }

// SetCompactThreshold overrides the journal length that triggers an
// inline compaction on Save. Values below one are ignored. Call before
// the store is shared; the knob is not synchronized against live saves.
func (fs *FileDeltaStore) SetCompactThreshold(n int) {
	if n >= 1 {
		fs.threshold = n
	}
}

func (fs *FileDeltaStore) path(tenant string) string {
	return filepath.Join(fs.dir, tenant+".bhdt")
}

func (fs *FileDeltaStore) journalPath(tenant string) string {
	return filepath.Join(fs.dir, tenant+".bhdtj")
}

// record returns the tenant's digest record, creating it on first use.
func (fs *FileDeltaStore) record(tenant string) *tenantRecord {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	rec, ok := fs.tenants[tenant]
	if !ok {
		rec = &tenantRecord{}
		fs.tenants[tenant] = rec
	}
	return rec
}

// signLearner folds one override's class memory into an FNV-64 digest —
// the unit the store diffs to decide which learners a refit moved.
func signLearner(l *onlinehd.HVClassifier) uint64 {
	const (
		offset uint64 = 14695981039346656037
		prime  uint64 = 1099511628211
	)
	h := offset
	l.ReadClass(func(class []hdc.Vector, _ uint64) {
		for _, cv := range class {
			for _, x := range cv {
				h ^= math.Float64bits(x)
				h *= prime
			}
		}
	})
	return h
}

// signAlphas folds an alpha slice (nil folds to the bare offset).
func signAlphas(alphas []float64) uint64 {
	const (
		offset uint64 = 14695981039346656037
		prime  uint64 = 1099511628211
	)
	h := offset
	for _, a := range alphas {
		h ^= math.Float64bits(a)
		h *= prime
	}
	return h
}

// digestDelta computes the per-learner + alpha digests of a delta.
func digestDelta(d *boosthd.Delta) (map[int]uint64, uint64) {
	sigs := make(map[int]uint64, len(d.Learners))
	for i, l := range d.Learners {
		sigs[i] = signLearner(l)
	}
	return sigs, signAlphas(d.Alphas)
}

// Load implements DeltaStore: read the full record, then replay the
// journal patches fenced to its epoch. The merged delta seeds the
// store's digest record, so the next Save for this tenant diffs and
// appends instead of rewriting — even right after a restart.
func (fs *FileDeltaStore) Load(tenant string, base *boosthd.Model, baseFP uint64) (*boosthd.Delta, error) {
	rec := fs.record(tenant)
	rec.mu.Lock()
	defer rec.mu.Unlock()

	b, err := os.ReadFile(fs.path(tenant))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, ErrNoDelta
		}
		return nil, fmt.Errorf("serve: tenant %s: %w", tenant, err)
	}
	stored, d, epoch, err := boosthd.LoadDeltaStamped(bytes.NewReader(b), base, baseFP)
	if err != nil {
		return nil, fmt.Errorf("serve: tenant %s: %w", tenant, err)
	}
	if stored != tenant {
		return nil, fmt.Errorf("serve: tenant %s: record names tenant %q; store corrupted or misfiled", tenant, stored)
	}

	entries, err := fs.replayJournal(tenant, d, base, baseFP, epoch)
	if err != nil {
		return nil, err
	}

	rec.known = true
	rec.fp = baseFP
	rec.epoch = epoch
	rec.entries = entries
	rec.learner, rec.alphas = digestDelta(d)
	return d, nil
}

// replayJournal applies tenant's journal patches onto d in order,
// returning how many entries the journal holds (stale-epoch entries
// included — they still count toward the compaction threshold, since
// the threshold bounds file size and replay scan cost). A torn tail
// (crash mid-append) ends the replay silently; a corrupt fully-written
// entry is loud.
func (fs *FileDeltaStore) replayJournal(tenant string, d *boosthd.Delta, base *boosthd.Model, baseFP, epoch uint64) (int, error) {
	jb, err := os.ReadFile(fs.journalPath(tenant))
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, fmt.Errorf("serve: tenant %s: journal: %w", tenant, err)
	}
	entries := 0
	for off := 0; off+4 <= len(jb); {
		n := int(binary.LittleEndian.Uint32(jb[off:]))
		if off+4+n > len(jb) {
			break // torn tail from a crashed append; the patch never committed
		}
		entry := jb[off+4 : off+4+n]
		off += 4 + n
		entries++
		pt, patch, matched, err := boosthd.LoadDeltaPatch(bytes.NewReader(entry), base, baseFP, epoch)
		if err != nil {
			return 0, fmt.Errorf("serve: tenant %s: journal entry %d: %w", tenant, entries, err)
		}
		if !matched {
			continue // fenced off by epoch: orphaned by a pre-crash compaction
		}
		if pt != tenant {
			return 0, fmt.Errorf("serve: tenant %s: journal entry %d names tenant %q; store corrupted or misfiled",
				tenant, entries, pt)
		}
		d.Merge(patch)
	}
	return entries, nil
}

// Save implements DeltaStore. The first save for a tenant (or any save
// the store cannot prove is an incremental refit: unknown on-disk state,
// a moved base fingerprint, a shrunken override set, or a journal at the
// compaction threshold) writes a full record; every other save appends a
// changed-learner patch to the journal.
func (fs *FileDeltaStore) Save(tenant string, d *boosthd.Delta, baseFP uint64) error {
	rec := fs.record(tenant)
	rec.mu.Lock()
	defer rec.mu.Unlock()

	sigs, asig := digestDelta(d)
	if !rec.known || rec.fp != baseFP || len(sigs) < len(rec.learner) {
		return fs.rewriteLocked(rec, tenant, d, baseFP, sigs, asig)
	}
	var changed []int
	for _, i := range d.Indexes() {
		if old, ok := rec.learner[i]; !ok || old != sigs[i] {
			changed = append(changed, i)
		}
	}
	if len(changed) == 0 && asig == rec.alphas {
		return nil // bit-identical to what is already persisted
	}
	if rec.entries+1 >= fs.threshold {
		return fs.rewriteLocked(rec, tenant, d, baseFP, sigs, asig)
	}

	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 0}) // length prefix, patched below
	if err := boosthd.SaveDeltaPatch(&buf, tenant, d, changed, baseFP, rec.epoch); err != nil {
		return fmt.Errorf("serve: tenant %s: %w", tenant, err)
	}
	b := buf.Bytes()
	binary.LittleEndian.PutUint32(b, uint32(len(b)-4))
	f, err := os.OpenFile(fs.journalPath(tenant), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("serve: tenant %s: journal: %w", tenant, err)
	}
	// One write call for prefix + patch: a crash tears at most the tail
	// of this entry, which replay drops.
	if _, err := f.Write(b); err != nil {
		f.Close()
		return fmt.Errorf("serve: tenant %s: journal: %w", tenant, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("serve: tenant %s: journal: %w", tenant, err)
	}
	rec.entries++
	rec.learner = sigs
	rec.alphas = asig
	return nil
}

// rewriteLocked writes a fresh full record at a new epoch, durably (temp
// file synced, renamed into place, directory synced), then truncates the
// journal. Called with rec.mu held.
func (fs *FileDeltaStore) rewriteLocked(rec *tenantRecord, tenant string, d *boosthd.Delta, baseFP uint64, sigs map[int]uint64, asig uint64) error {
	epoch := uint64(time.Now().UnixNano())
	err := wire.WriteFileAtomic(fs.path(tenant), tenant+".*.tmp", func(w io.Writer) error {
		return boosthd.SaveDeltaStamped(w, tenant, d, baseFP, epoch)
	})
	if err != nil {
		return fmt.Errorf("serve: tenant %s: %w", tenant, err)
	}
	// Best-effort: entries left behind by a crash right here are fenced
	// off by the fresh epoch at the next replay.
	os.Remove(fs.journalPath(tenant))
	rec.known = true
	rec.fp = baseFP
	rec.epoch = epoch
	rec.entries = 0
	rec.learner = sigs
	rec.alphas = asig
	return nil
}

// Compact implements DeltaCompactor: fold tenant's journal back into one
// full record rewritten from d. The caller's snapshot is verified
// against the store's digest of the latest persisted state — if a newer
// save landed after the snapshot was taken, Compact declines instead of
// rolling the record back.
func (fs *FileDeltaStore) Compact(tenant string, d *boosthd.Delta, baseFP uint64) (bool, error) {
	if d == nil {
		return false, fmt.Errorf("serve: compact: nil delta for tenant %s", tenant)
	}
	rec := fs.record(tenant)
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if !rec.known || rec.entries == 0 || rec.fp != baseFP {
		return false, nil
	}
	sigs, asig := digestDelta(d)
	if len(sigs) != len(rec.learner) || asig != rec.alphas {
		return false, nil
	}
	for i, s := range sigs {
		if rec.learner[i] != s {
			return false, nil
		}
	}
	if err := fs.rewriteLocked(rec, tenant, d, baseFP, sigs, asig); err != nil {
		return false, err
	}
	return true, nil
}

// JournalEntries reports how many journal patches tenant's record
// currently carries (zero right after a full write or compaction).
func (fs *FileDeltaStore) JournalEntries(tenant string) int {
	rec := fs.record(tenant)
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return rec.entries
}
