// Package reliability is the runtime integrity subsystem for serving
// BoostHD models: it turns the paper's offline robustness claim — the
// boosted ensemble tolerates memory bit-flips — into a live serving
// guarantee. A Monitor watches the model memory behind a serve.Server
// through three mechanisms layered from cheap to semantic:
//
//  1. Detection. Every weak learner's memory is signed per dimension
//     segment: XOR-fold parity words plus position-mixed digests over
//     fixed-size blocks of the packed-binary sign and mask planes, and
//     the same fold over the aligned blocks of the float class
//     hypervectors. A background scrubber re-walks the memory on a
//     period and compares — a mismatch names the corrupted word range,
//     not just the learner. A small held-out canary set additionally
//     scores each learner solo, catching accuracy collapse a memory
//     checksum cannot attribute (e.g. corruption that predates
//     quantization, or drift).
//
//  2. Response, at two tiers, read off one verdict table. Each learner
//     has a row with one cell per signature segment recording what the
//     scrub attributed there (nothing, plane damage, float damage).
//     Corrupted segments are masked out of the vote: both scoring
//     backends honor per-learner dimension masks (the packed-binary
//     path ANDs the mask into the confidence masks and renormalizes by
//     the surviving popcount; the float path zeroes the masked class
//     components with matching norms), so the learner keeps voting from
//     its thousands of healthy dimensions. One criticality rule over the
//     row escalates to full-learner alpha masking — when the healthy
//     fraction drops below the floor or the canary-measured impact of
//     the masked segments exceeds the quarantine drop — and a canary
//     collapse the signatures cannot explain quarantines the learner
//     outright. Every mask change installs through the server's atomic
//     compare-and-swap, so requests never see a torn model.
//
//  3. Repair, through an ordered list of restore sources: re-threshold
//     the planes from intact float memory, restore the corrupted float
//     segments (or a frozen snapshot wholesale) from the last verified
//     checkpoint, refit through the trainer. Each masked learner takes
//     the first source that can serve it, and every source ends in the
//     same tail: the restored memory is canary-verified, re-signed, and
//     un-masked through the compare-and-swap.
//
// With live training attached, the trainer hands the monitor a fresh
// signature after every update it applies (NoteMutation), so strict
// integrity scrubbing keeps running: a version bump without a matching
// handed signature is corruption, not trust-on-sight.
package reliability

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"boosthd/internal/boosthd"
	"boosthd/internal/infer"
	"boosthd/internal/obs"
	"boosthd/internal/serve"
)

// Config tunes a Monitor.
type Config struct {
	// ScrubEvery is the background scrub (and auto-repair) period; zero
	// means no background loop — Scrub/Repair are driven manually.
	ScrubEvery time.Duration
	// QuarantineDrop is the absolute canary-accuracy drop below a
	// learner's signed baseline that quarantines it — and the
	// criticality budget for dimension masking: a learner whose masked
	// segments carry more canary-measured impact than this is fully
	// alpha-masked instead. Zero selects the 0.15 default — exact-zero
	// tolerance is not expressible (and would quarantine on ordinary
	// canary noise; use a small positive value).
	QuarantineDrop float64
	// SegmentWords is the signature segment width in packed 64-bit
	// words (64 dimensions each): corruption is attributed and masked
	// at this granularity. Zero selects DefaultSegmentWords (8, i.e.
	// 512 dimensions); smaller segments attribute more surgically at
	// 2/SegmentWords words of signature storage overhead.
	SegmentWords int
	// MinHealthyFraction is the dimension-quarantine floor: a learner
	// whose healthy-dimension fraction would drop below it is fully
	// alpha-masked instead of dimension-masked (too little trusted
	// memory left to vote meaningfully). Zero selects the 0.5 default;
	// >= 1 forces learner-granular quarantine for every fault — the
	// PR-4 behavior, kept for A/B comparison.
	MinHealthyFraction float64
	// CheckpointPath names the last verified checkpoint OF THE SERVING
	// MODEL (a float ensemble written by Model.Save): the repair source
	// for corrupted float class memory, and — for a frozen binary
	// snapshot, which has no float memory at all — the full-reload
	// source. Empty disables checkpoint repair. If the serving engine
	// later changes hands (operator swap, trainer retrain), the
	// checkpoint no longer describes the serving model and checkpoint
	// repair disarms automatically; re-arm with SetCheckpoint.
	CheckpointPath string
	// Trainer, when set, is the last repair source: float damage no
	// armed checkpoint could restore triggers a refit through the
	// trainer's existing hot-retrain path.
	Trainer serve.Trainer
	// SignedUpdates expects every legitimate class-memory mutation to
	// be announced through NoteMutation with a fresh signature (the
	// trainer→monitor contract): a version counter that advanced
	// without a matching handed signature gets one scrub pass of grace
	// for the in-flight handoff, then is treated as corruption. This
	// keeps integrity scrubbing strict under live training. Leave it
	// false for a static serving model, where any mutation is
	// corruption — fault injection through the locked paths bumps
	// versions too, and strict mode catches it. The canary check guards
	// both modes.
	SignedUpdates bool
	// StatePath, when set, persists the health ledger — per-learner fault
	// counters, canary baselines, and segment-criticality baselines —
	// after every scrub and repair pass, so a restart resumes the fault
	// history instead of starting blind. Restore it with LoadState (after
	// SetCanary, so the persisted baselines win over freshly recomputed
	// ones). Writes are atomic and synced; a failed write is recorded in
	// Status's LastError rather than failing the pass.
	StatePath string
	// Journal, when set, receives a typed event for every non-clean
	// scrub verdict, quarantine/mask change, repair attempt, and
	// baseline adoption, each pass grouped under one correlation ID.
	// Nil disables journaling at the cost of a nil check per event.
	Journal *obs.Journal
}

func (c Config) withDefaults() Config {
	if c.QuarantineDrop == 0 {
		c.QuarantineDrop = 0.15
	}
	if c.SegmentWords <= 0 {
		c.SegmentWords = DefaultSegmentWords
	}
	if c.MinHealthyFraction == 0 {
		c.MinHealthyFraction = 0.5
	}
	return c
}

// maxPending bounds the per-learner queue of trainer-handed signatures
// awaiting reconciliation by the next scrub.
const maxPending = 16

// segState is one cell of the verdict table: what the scrub attributed
// to a dimension segment, ordered by how much of the memory behind it is
// untrusted. Any state but segHealthy masks the segment out of the
// serving views.
type segState uint8

const (
	segHealthy segState = iota
	// segPlanes: the quantized planes disagree with their signature
	// while the float memory verifies — re-thresholding heals it.
	segPlanes
	// segFloat: the float memory itself disagrees — only an external
	// source (checkpoint, trainer) can restore it.
	segFloat
)

// entry is one learner's row in the health ledger.
type entry struct {
	sig learnerSig // reference signature; masked segments keep pre-corruption values (the repair target)
	// pending holds trainer-handed signatures (NoteMutation) not yet
	// reconciled by a scrub; suspect is a version seen moved without a
	// matching handoff, granted one pass of grace under SignedUpdates.
	pending []learnerSig
	suspect uint64

	dims int

	// segs is the learner's row of the verdict table, one cell per
	// signature segment. crit is the canary-measured accuracy impact of
	// masking each segment solo, taken at baseline time — the
	// criticality signal that decides between masking the segments and
	// quarantining the learner.
	segs    []segState
	crit    []float64
	hasCrit bool

	// quarantined is the learner-level verdict: alpha-masked out of the
	// vote. canarySuspect marks a quarantine the canary contributed to:
	// the learner's memory cannot be trusted even where its signatures
	// agree, so repair must restore it whole from an external source
	// rather than re-threshold in place.
	quarantined   bool
	canarySuspect bool

	integrityFaults uint64
	canaryFaults    uint64
	repairs         uint64

	baseline  float64 // solo canary accuracy at signing
	last      float64 // most recent solo canary accuracy
	hasCanary bool
}

// maskedSegs lists the segments the learner's row masks.
func (e *entry) maskedSegs() []int {
	var out []int
	for s, st := range e.segs {
		if st != segHealthy {
			out = append(out, s)
		}
	}
	return out
}

// mark raises the listed segments' cells to at least st.
func (e *entry) mark(segs []int, st segState) {
	for _, s := range segs {
		e.segs[s] = max(e.segs[s], st)
	}
}

// maskedWords returns the number of packed 64-bit words masked out.
func (e *entry) maskedWords(segWords int) int {
	words := 0
	for _, s := range e.maskedSegs() {
		lo, hi := segDimRange(e.dims, segWords, s)
		words += (hi - lo + 63) / 64
	}
	return words
}

// healthyFraction returns the fraction of local dimensions still
// trusted.
func (e *entry) healthyFraction(segWords int) float64 {
	masked := 0
	for _, s := range e.maskedSegs() {
		lo, hi := segDimRange(e.dims, segWords, s)
		masked += hi - lo
	}
	return 1 - float64(masked)/float64(e.dims)
}

// critImpact sums the canary-measured impact of the currently masked
// segments.
func (e *entry) critImpact() float64 {
	if !e.hasCrit {
		return 0
	}
	sum := 0.0
	for _, s := range e.maskedSegs() {
		if s < len(e.crit) {
			sum += e.crit[s]
		}
	}
	return sum
}

// restored records a verified repair: the fresh signature becomes the
// reference and the learner's whole row clears.
func (e *entry) restored(sig learnerSig) {
	e.sig = sig
	e.quarantined, e.canarySuspect = false, false
	e.pending, e.suspect = nil, 0
	clear(e.segs)
	e.repairs++
}

// adoptPending reconciles a moved version against the trainer-handed
// signatures: when one matches cur exactly (version and content), the
// reference's float half adopts it and consumed handoffs are dropped.
func (e *entry) adoptPending(cur *learnerSig) bool {
	if !e.hasMatchingPending(cur) {
		return false
	}
	e.sig.version = cur.version
	e.sig.hasFloat = cur.hasFloat
	e.sig.classSegs = cur.classSegs
	kept := e.pending[:0]
	for _, p := range e.pending {
		if p.version > cur.version {
			kept = append(kept, p)
		}
	}
	e.pending = kept
	e.suspect = 0
	return true
}

// hasMatchingPending reports (without consuming anything) whether a
// queued handoff matches cur exactly — the read-only form of
// adoptPending, used by Repair to decide whether a version that moved
// since the scrub was announced.
func (e *entry) hasMatchingPending(cur *learnerSig) bool {
	for _, p := range e.pending {
		if p.version == cur.version && p.floatEqual(cur) {
			return true
		}
	}
	return false
}

// pendingNewerThan reports whether a handed signature strictly newer
// than version is queued — the scan raced a burst of announced updates
// and the next pass reconciles against the newer handoff. A pending
// entry AT version with different content deliberately does not count:
// that means the memory changed after its handoff signed it, which the
// grace-then-corrupt path must judge.
func (e *entry) pendingNewerThan(version uint64) bool {
	for _, p := range e.pending {
		if p.version > version {
			return true
		}
	}
	return false
}

// ScrubReport describes one scrub pass.
type ScrubReport struct {
	// EncoderHealed lists the learners whose encoder plane differed from
	// its regeneration and was swapped for a fresh one this pass.
	EncoderHealed []int `json:"encoder_healed,omitempty"`
	// Adopted is true when the serving engine changed hands since the
	// last pass (operator swap, trainer retrain): the monitor re-signed
	// the new model instead of scrubbing signatures it no longer holds.
	Adopted bool `json:"adopted,omitempty"`
	// IntegrityFaults and CanaryFaults list learners flagged this pass.
	IntegrityFaults []int `json:"integrity_faults,omitempty"`
	CanaryFaults    []int `json:"canary_faults,omitempty"`
	// Quarantined lists learners newly alpha-masked wholesale this
	// pass; DimMasked lists learners whose dimension masks grew instead
	// (still voting from their healthy dimensions).
	Quarantined []int `json:"quarantined,omitempty"`
	DimMasked   []int `json:"dim_masked,omitempty"`
	// MaskedWords is the total packed words currently masked across the
	// ensemble after this pass.
	MaskedWords int `json:"masked_words,omitempty"`
	// Swapped is true when a quarantine mask changed and a rebuilt
	// engine was installed.
	Swapped bool    `json:"swapped,omitempty"`
	TookMS  float64 `json:"took_ms"`
}

// RepairReport describes one repair pass.
type RepairReport struct {
	Repaired []int `json:"repaired,omitempty"`
	Failed   []int `json:"failed,omitempty"`
	// Segments counts float dimension segments restored in place from
	// the checkpoint (a whole-learner restore counts all of its
	// segments; an engine reload or refit counts none).
	Segments int     `json:"segments,omitempty"`
	Source   string  `json:"source,omitempty"` // rethreshold, checkpoint, trainer: the last source that restored anything
	Swapped  bool    `json:"swapped,omitempty"`
	Reason   string  `json:"reason,omitempty"` // why nothing was repaired
	TookMS   float64 `json:"took_ms"`
}

// Monitor owns the reliability loop for one serve.Server. All methods
// are safe for concurrent use. Two locks split responsiveness from
// serialization: passMu serializes whole Scrub/Repair passes (so the
// background loop and manual calls never interleave), while mu guards
// the monitor state and is RELEASED around the slow repair steps
// (checkpoint load, trainer retrain) — /healthz and /reliability keep
// answering while the monitor is mid-heal.
type Monitor struct {
	cfg Config
	srv *serve.Server

	passMu sync.Mutex // serializes Scrub/Repair passes end to end

	mu          sync.Mutex
	cur         *infer.Engine  // engine the monitor installed or signed last
	base        *boosthd.Model // model carrying the true (unmasked) alphas
	ledger      []*entry
	canaryX     [][]float64
	canaryY     []int
	lastScrubMS float64
	lastErr     string
	// autoStuck marks a repair attempt that restored nothing while
	// something stayed quarantined: the background loop stops retrying
	// (each retry would redo the full re-threshold + canary pass and
	// inflate the failure counters) until a scrub changes the picture —
	// a new quarantine, an adoption, or a manual Repair.
	autoStuck bool
	// ckptArmed is true while CheckpointPath still describes the model
	// behind the serving engine. Adopting a foreign engine (operator
	// swap, trainer retrain) disarms it: restoring learners from a
	// checkpoint of a DIFFERENT model would graft stale weights into
	// the new one and re-sign the chimera as healthy.
	ckptArmed bool
	// passCorr is the journal correlation ID of the Scrub/Repair pass
	// currently holding passMu; every event the pass appends shares it.
	passCorr uint64

	scrubs      atomic.Uint64
	detections  atomic.Uint64
	quarantines atomic.Uint64
	repairs     atomic.Uint64
	repairFails atomic.Uint64
	// encoderHeals counts the learners named by encoder_heal events,
	// the unit repairs counts in.
	encoderHeals atomic.Uint64

	loopMu sync.Mutex
	stop   chan struct{}
	done   chan struct{}
}

// New builds a Monitor over the model behind srv's current serving
// engine and signs it immediately: the engine installed at construction
// is the trusted baseline. When CheckpointPath is set, the checkpoint is
// opened once up front so a missing or unreadable repair source fails at
// configuration time, not mid-incident.
func New(srv *serve.Server, cfg Config) (*Monitor, error) {
	if srv == nil {
		return nil, fmt.Errorf("reliability: nil server")
	}
	cfg = cfg.withDefaults()
	if cfg.QuarantineDrop < 0 || cfg.QuarantineDrop > 1 {
		return nil, fmt.Errorf("reliability: quarantine drop %v outside [0,1]", cfg.QuarantineDrop)
	}
	if cfg.MinHealthyFraction < 0 {
		return nil, fmt.Errorf("reliability: min healthy fraction %v negative", cfg.MinHealthyFraction)
	}
	if cfg.CheckpointPath != "" {
		if _, err := loadCheckpoint(srv.Engine(), cfg.CheckpointPath); err != nil {
			return nil, fmt.Errorf("reliability: repair checkpoint: %w", err)
		}
	}
	mo := &Monitor{cfg: cfg, srv: srv, ckptArmed: cfg.CheckpointPath != ""}
	// adoptLocked (and the baseline path under it) runs with mo.mu held
	// everywhere else; hold it here too so its internal unlock/relock
	// around heavy reads stays uniform.
	mo.mu.Lock()
	mo.adoptLocked(srv.Engine())
	mo.mu.Unlock()
	return mo, nil
}

// Config returns the resolved configuration.
func (mo *Monitor) Config() Config {
	mo.mu.Lock()
	defer mo.mu.Unlock()
	return mo.cfg
}

// SetCheckpoint re-arms checkpoint repair with a checkpoint of the
// CURRENT serving model — the call an operator makes after swapping in
// a new checkpoint, so the monitor can restore from it again. The file
// is validated (loadable; geometry-compatible) before anything changes.
//
//hdlint:ignore deadexport facade users re-arm through ReliabilityMonitor.SetCheckpoint, which the /reliability disarm message names
func (mo *Monitor) SetCheckpoint(path string) error {
	if path == "" {
		return fmt.Errorf("reliability: empty checkpoint path")
	}
	mo.passMu.Lock()
	defer mo.passMu.Unlock()
	mo.mu.Lock()
	cur := mo.cur
	mo.mu.Unlock()
	if _, err := loadCheckpoint(cur, path); err != nil {
		return fmt.Errorf("reliability: repair checkpoint: %w", err)
	}
	mo.mu.Lock()
	mo.cfg.CheckpointPath = path
	mo.ckptArmed = true
	mo.autoStuck = false // a new source: auto-repair may retry
	mo.mu.Unlock()
	return nil
}

// frozen reports whether eng serves a frozen binary snapshot: packed
// planes with no float class memory behind them.
func frozen(eng *infer.Engine) bool {
	bin := eng.Binary()
	return bin != nil && bin.Frozen()
}

// loadCheckpoint reads path as a repair source for the serving engine
// cur and checks its geometry against the model behind cur, so a
// checkpoint of a different model can neither graft vectors from another
// hyperspace nor change the serving contract. A frozen snapshot's repair
// unit is a wholesale reload, so it loads as a binary engine; otherwise
// the float ensemble loads, and its learners are the restore source.
func loadCheckpoint(cur *infer.Engine, path string) (*infer.Engine, error) {
	backend := "float"
	if frozen(cur) {
		backend = "binary"
	}
	eng, err := serve.LoadEngine(path, backend)
	if err != nil {
		return nil, err
	}
	if err := compatible(cur.Model(), eng.Model()); err != nil {
		return nil, err
	}
	return eng, nil
}

// SetCanary installs a held-out labeled canary set, records each
// learner's solo accuracy on it as its health baseline, and measures
// each dimension segment's criticality (the accuracy each learner loses
// when that segment alone is masked). The rows are deep-copied — the
// canary is the reference the scrubber trusts, so no caller alias may
// reach it afterwards.
func (mo *Monitor) SetCanary(X [][]float64, y []int) error {
	if len(X) == 0 || len(X) != len(y) {
		return fmt.Errorf("reliability: bad canary set (%d rows, %d labels)", len(X), len(y))
	}
	// passMu keeps the install out of a running pass: Scrub and Repair
	// read the canary slices with the state lock released.
	mo.passMu.Lock()
	defer mo.passMu.Unlock()
	mo.mu.Lock()
	defer mo.mu.Unlock()
	want := mo.base.InputDim()
	classes := mo.base.Cfg.Classes
	cx := make([][]float64, len(X))
	cy := make([]int, len(y))
	for i, row := range X {
		if len(row) != want {
			return fmt.Errorf("reliability: canary row %d has %d features, model expects %d", i, len(row), want)
		}
		if y[i] < 0 || y[i] >= classes {
			return fmt.Errorf("reliability: canary label %d at row %d outside [0,%d)", y[i], i, classes)
		}
		cx[i] = append([]float64(nil), row...)
		cy[i] = y[i]
	}
	mo.canaryX, mo.canaryY = cx, cy
	return mo.baselineCanaryLocked()
}

// baselineCanaryLocked scores every learner on the canary set, records
// the accuracies as baselines, and ranks segment criticality: for each
// segment index, an engine view with exactly that segment masked in
// every learner scores the canary, and the per-learner accuracy drop
// becomes that segment's measured impact. The scrub's dimension-vs-
// learner quarantine decision sums these impacts over a learner's
// masked segments and escalates past QuarantineDrop.
//
// Called with mo.mu held; the canary sweeps (one per segment — the
// heaviest reads the monitor ever does) run with the lock RELEASED so
// Status and NoteMutation keep answering, exactly like Scrub's heavy
// reads. passMu in every caller's stack keeps the captured state
// stable for the duration.
func (mo *Monitor) baselineCanaryLocked() error {
	if len(mo.canaryX) == 0 {
		return nil
	}
	cur, base := mo.cur, mo.base
	canaryX, canaryY := mo.canaryX, mo.canaryY
	segWords := mo.cfg.SegmentWords
	dims := make([]int, len(mo.ledger))
	maxSegs := 0
	for i, e := range mo.ledger {
		dims[i] = e.dims
		maxSegs = max(maxSegs, len(e.segs))
	}

	mo.mu.Unlock()
	acc, err := cur.EvaluateLearners(canaryX, canaryY)
	var crit [][]float64
	if err == nil && maxSegs > 1 {
		crit = make([][]float64, maxSegs)
		noMask := make([]bool, len(dims))
		for s := 0; s < maxSegs && err == nil; s++ {
			healthy := make([][]uint64, len(dims))
			any := false
			for i, d := range dims {
				if s >= segsFor(d, segWords) {
					continue
				}
				healthy[i] = segMask(d, segWords, []int{s})
				any = true
			}
			if !any {
				continue
			}
			var eng *infer.Engine
			eng, err = infer.RemaskDims(cur, base, noMask, healthy)
			if err == nil {
				crit[s], err = eng.EvaluateLearners(canaryX, canaryY)
			}
		}
	}
	mo.mu.Lock()
	if err != nil {
		return fmt.Errorf("reliability: canary baseline: %w", err)
	}
	for i, e := range mo.ledger {
		e.baseline, e.last, e.hasCanary = acc[i], acc[i], true
		if maxSegs <= 1 {
			// One segment per learner: masking it is masking the
			// learner; the criticality ranking degenerates to the
			// canary drop itself.
			if len(e.crit) == 1 {
				e.crit[0] = e.baseline
			}
		} else {
			for s := range e.crit {
				if s >= len(crit) || crit[s] == nil {
					continue
				}
				d := e.baseline - crit[s][i]
				if d < 0 {
					d = 0
				}
				e.crit[s] = d
			}
		}
		e.hasCrit = true
	}
	return nil
}

// adoptLocked re-points the monitor at eng: fresh ledger, an empty
// verdict table, signatures taken from the memory behind it, canary
// baselines recomputed when a canary set is installed. The engine is
// presumed verified — adoption is for engines installed by trusted
// actors (construction, operator swap, trainer retrain, repair).
func (mo *Monitor) adoptLocked(eng *infer.Engine) {
	mo.cur = eng
	mo.base = eng.Model()
	sigs := signModel(mo.base, eng.Binary(), mo.cfg.SegmentWords)
	mo.ledger = make([]*entry, len(sigs))
	for i := range sigs {
		segs := sigs[i].segs()
		mo.ledger[i] = &entry{
			sig:  sigs[i],
			dims: sigs[i].dims,
			segs: make([]segState, segs),
			crit: make([]float64, segs),
		}
	}
	if len(mo.canaryX) > 0 {
		if err := mo.baselineCanaryLocked(); err != nil {
			// The adopted model cannot score the canary (for example a
			// different feature width): drop the canary rather than
			// flag every learner against a baseline that no longer
			// applies, and surface the reason in Status.
			mo.canaryX, mo.canaryY = nil, nil
			for _, e := range mo.ledger {
				e.hasCanary = false
			}
			mo.lastErr = err.Error()
		}
	}
}

// NoteMutation is the trainer→monitor integrity handoff: called right
// after a locked streaming update moved the listed learners' class
// memories, it re-signs exactly those learners and queues the
// signatures as announced mutations. Under SignedUpdates the next scrub
// trusts a moved version only if it matches a handed signature — so
// live training stays compatible with strict corruption detection at
// per-learner, per-update granularity.
func (mo *Monitor) NoteMutation(learners []int) {
	if len(learners) == 0 {
		return
	}
	// Signing walks each learner's full class memory: do it with only
	// the learner's own read lock held, not mo.mu — this runs on the
	// trainer's observe path, which must not serialize behind Status or
	// a scrub reconciliation.
	mo.mu.Lock()
	base := mo.base
	count := len(mo.ledger)
	segWords := mo.cfg.SegmentWords
	mo.mu.Unlock()
	idx := make([]int, 0, len(learners))
	sigs := make([]learnerSig, 0, len(learners))
	for _, i := range learners {
		if i < 0 || i >= count || i >= len(base.Learners) {
			continue
		}
		idx = append(idx, i)
		sigs = append(sigs, signFloatLearner(base.Learners[i], segWords))
	}
	mo.mu.Lock()
	defer mo.mu.Unlock()
	if mo.base != base {
		// The monitor adopted a different model while we signed; these
		// handoffs describe memory it no longer scrubs.
		return
	}
	for k, i := range idx {
		if i >= len(mo.ledger) {
			continue
		}
		e := mo.ledger[i]
		e.pending = append(e.pending, sigs[k])
		if len(e.pending) > maxPending {
			e.pending = e.pending[len(e.pending)-maxPending:]
		}
	}
}

// verdict is one scrub pass's decision for a learner.
type verdict uint8

const (
	unchanged  verdict = iota
	maskDims           // newly corrupted segments join the learner's dimension mask
	quarantine         // the whole learner is alpha-masked out of the vote
)

// Scrub runs one detection pass: heal the serving encoders' planes,
// verify every healthy learner's segment signatures, score the canary,
// record what failed in the verdict table, and decide per learner —
// mask the corrupted segments, or quarantine the whole learner when the
// damage is too broad (healthy fraction below MinHealthyFraction), too
// critical (summed canary impact of the masked segments past
// QuarantineDrop), or unattributable (a canary collapse).
// When any mask changed, a rebuilt two-tier-masked engine installs
// through the server's atomic swap. Fully quarantined learners are
// skipped (their memory is known bad until repaired); already-masked
// segments are skipped the same way. If the serving engine changed hands
// since the last pass, the monitor adopts and re-signs it instead.
func (mo *Monitor) Scrub() (ScrubReport, error) {
	mo.passMu.Lock()
	defer mo.passMu.Unlock()
	mo.passCorr = mo.cfg.Journal.NewCorr()
	// Registered before the state lock's defer, so it runs after mu is
	// released: the durable ledger snapshot reflects this pass's verdicts.
	defer mo.persistState()
	start := time.Now()
	report := ScrubReport{}
	defer func() {
		report.TookMS = time.Since(start).Seconds() * 1e3
		mo.mu.Lock()
		mo.lastScrubMS = report.TookMS
		mo.mu.Unlock()
		mo.scrubs.Add(1)
	}()

	// The encoder check comes first, before adoption, signing and the
	// canary: every query and canary row encodes through the planes, so
	// a plane fault is healed before anything is judged on what it
	// encoded, and class memory is never blamed for it. Tenant and
	// masked views share the serving engine's encoders.
	if hit := mo.srv.Engine().Model().HealEncoders(); hit != nil {
		report.EncoderHealed = hit
		mo.encoderHeals.Add(uint64(len(hit)))
		mo.journal(obs.Event{Type: obs.EvEncoderHeal, Learners: hit,
			Detail: "encoder plane regenerated from its stream roots"})
	}

	mo.mu.Lock()
	if eng := mo.srv.Engine(); eng != mo.cur {
		mo.adoptForeignLocked(eng)
		report.Adopted = true
		mo.mu.Unlock()
		return report, nil
	}
	cur, base := mo.cur, mo.base
	canaryX, canaryY := mo.canaryX, mo.canaryY
	segWords := mo.cfg.SegmentWords
	mo.mu.Unlock()

	// The heavy reads — full-memory signing and the canary sweep — run
	// with the state lock released, so Status (and therefore /healthz
	// and /reliability) keeps answering mid-scrub. passMu keeps other
	// passes (and SetCanary/SetCheckpoint) out, and external swaps only
	// change srv.Engine(), which the next pass adopts.
	sigs := signModel(base, cur.Binary(), segWords)
	var acc []float64
	var canaryErr error
	if len(canaryX) > 0 {
		acc, canaryErr = cur.EvaluateLearners(canaryX, canaryY)
	}

	mo.mu.Lock()
	defer mo.mu.Unlock()
	// A canary failure must not stop integrity-flagged learners from
	// being masked below — the error is reported after the response,
	// not instead of it.
	if canaryErr != nil {
		mo.lastErr = canaryErr.Error()
	}
	verdicts := make([]verdict, len(mo.ledger))
	for i, e := range mo.ledger {
		if acc != nil {
			e.last = acc[i]
		}
		if e.quarantined {
			continue
		}
		newFloat, newPlane := mo.attributeLocked(e, &sigs[i])
		switch {
		case len(newFloat)+len(newPlane) > 0:
			e.integrityFaults++
			report.IntegrityFaults = append(report.IntegrityFaults, i)
			e.mark(newPlane, segPlanes)
			e.mark(newFloat, segFloat)
			verdicts[i] = maskDims
			if e.healthyFraction(segWords) < mo.cfg.MinHealthyFraction ||
				e.critImpact() > mo.cfg.QuarantineDrop {
				verdicts[i] = quarantine
			}
		case acc != nil && e.hasCanary && e.baseline-acc[i] > mo.cfg.QuarantineDrop:
			// A collapse the segment signatures did NOT explain (or one
			// that survives an earlier dimension mask): the rest of the
			// memory cannot be trusted either, so repair must restore
			// from an external source. A learner whose mask grew this
			// pass is not judged here — the canary measured it before
			// the new mask took effect; the next pass judges it masked.
			e.canaryFaults++
			e.canarySuspect = true
			verdicts[i] = quarantine
			report.CanaryFaults = append(report.CanaryFaults, i)
		}
	}

	// Never alpha-mask the entire ensemble: an all-zero-alpha model
	// answers class 0 for every request with a 200 — strictly worse
	// than serving the least-damaged learner. Dimension-masked learners
	// still vote, so they count as serving; among learners headed for
	// quarantine, keep the one with the best current canary accuracy
	// (lowest index without a canary) voting. Its segment verdicts stand
	// and the error surfaces in Status, so the total-corruption event is
	// loud, not silent.
	serving, spare, best := 0, -1, -1.0
	for i, e := range mo.ledger {
		if e.quarantined {
			continue
		}
		if verdicts[i] != quarantine {
			serving++
			continue
		}
		score := -float64(i)
		if acc != nil && e.hasCanary {
			score = acc[i]
		}
		if spare == -1 || score > best {
			spare, best = i, score
		}
	}
	if serving == 0 && spare >= 0 {
		e := mo.ledger[spare]
		e.canarySuspect = false
		verdicts[spare] = unchanged
		if len(e.maskedSegs()) > 0 {
			verdicts[spare] = maskDims // serve it dimension-masked at least
		}
		mo.lastErr = fmt.Sprintf("all %d learners corrupted; keeping learner %d voting so the server still answers", len(mo.ledger), spare)
	}

	for i, v := range verdicts {
		switch v {
		case quarantine:
			mo.ledger[i].quarantined = true
			mo.quarantines.Add(1)
			report.Quarantined = append(report.Quarantined, i)
		case maskDims:
			report.DimMasked = append(report.DimMasked, i)
		default:
			continue
		}
		mo.detections.Add(1)
	}
	// Journal the pass verdict before the mask install, so the
	// engine_swap event of a landed install orders after its cause.
	if len(report.IntegrityFaults) > 0 || len(report.CanaryFaults) > 0 {
		mo.journal(obs.Event{Type: obs.EvScrub,
			Learners: append(append([]int(nil), report.IntegrityFaults...), report.CanaryFaults...),
			Detail:   fmt.Sprintf("integrity faults %v, canary faults %v", report.IntegrityFaults, report.CanaryFaults)})
	}
	if len(report.Quarantined) > 0 {
		mo.journal(obs.Event{Type: obs.EvQuarantine, Learners: report.Quarantined,
			Detail: "alpha-masked out of the vote"})
	}
	for _, i := range report.DimMasked {
		e := mo.ledger[i]
		mo.journal(obs.Event{Type: obs.EvDimMask, Learners: []int{i}, Segments: e.maskedSegs(),
			Detail: fmt.Sprintf("voting from %.0f%% healthy dimensions", 100*e.healthyFraction(segWords))})
	}
	report.MaskedWords = mo.totalMaskedWordsLocked()
	if len(report.Quarantined)+len(report.DimMasked) > 0 {
		mo.autoStuck = false // the picture changed; repair may retry
		swapped, err := mo.installMaskLocked()
		if err != nil {
			mo.lastErr = err.Error()
			return report, err
		}
		report.Swapped = swapped
	}
	if canaryErr != nil {
		return report, fmt.Errorf("reliability: canary scrub: %w", canaryErr)
	}
	return report, nil
}

// attributeLocked reconciles a learner's reference signature with the
// one just scanned and returns the segments whose float memory and
// quantized planes newly disagree. Already-masked segments are skipped:
// their reference values describe the pre-corruption memory on purpose
// (the repair target), so they mismatch until repaired.
func (mo *Monitor) attributeLocked(e *entry, cur *learnerSig) (newFloat, newPlane []int) {
	ref := &e.sig
	announced := false
	deferFloat := false
	if ref.hasFloat && cur.version != ref.version {
		switch {
		case e.adoptPending(cur):
			// A trainer-handed signature matches: the mutation was
			// announced and the reference now describes it.
			announced = true
		case cur.version < ref.version, e.pendingNewerThan(cur.version):
			// The scan raced announced updates: the reference, or a
			// queued handoff, already describes a NEWER state than
			// we scanned. Defer the float verdict to the next pass
			// instead of burning the grace — under sustained
			// streaming this is the common case, and treating it as
			// suspect would starve verification forever (each pass
			// would see yet another version). The plane check below
			// still runs, so silent word faults are not deferred
			// with it.
			deferFloat = true
		case mo.cfg.SignedUpdates && e.suspect != cur.version:
			// One pass of grace: the update may have completed just
			// before our scan while its handoff is still in flight.
			e.suspect = cur.version
			deferFloat = true
		default:
			// Unannounced mutation: strict mode treats it as
			// corruption, but the segment diff still says WHERE —
			// the reference content predates the mutation, so the
			// changed segments are exactly the untrusted ones.
			ref.version = cur.version
		}
	} else {
		e.suspect = 0
	}

	if !announced && !deferFloat {
		newFloat = floatBadSegs(ref, cur, e.segs)
	}
	if !ref.hasPlanes {
		return newFloat, nil
	}
	if cur.planeVersion == ref.planeVersion {
		return newFloat, planeBadSegs(ref, cur, e.segs)
	}
	// Planes only move by re-quantization from the float memory. With
	// the float side verified (or restored to announced state) above,
	// the re-quantized planes are trustworthy: adopt their signatures.
	// With the float verdict deferred, defer the plane verdict with it
	// (the planes derive from the unverified float state); with float
	// corruption in play the float segments carry the response, and the
	// surgical re-threshold at repair rebuilds the planes anyway.
	switch {
	case deferFloat:
	case len(newFloat) == 0:
		ref.planeVersion = cur.planeVersion
		ref.signSegs = cur.signSegs
		ref.maskSegs = cur.maskSegs
	default:
		newPlane = newFloat
	}
	return newFloat, newPlane
}

// totalMaskedWordsLocked sums masked packed words across the ledger
// (dimension masks only; fully quarantined learners are counted by the
// quarantine list, not here).
func (mo *Monitor) totalMaskedWordsLocked() int {
	total := 0
	for _, e := range mo.ledger {
		if !e.quarantined {
			total += e.maskedWords(mo.cfg.SegmentWords)
		}
	}
	return total
}

// adoptForeignLocked adopts an engine installed by someone else —
// operator swap or trainer retrain. Besides the normal adoption it
// disarms checkpoint repair: the configured checkpoint described the
// previous model, and restoring its learners into the new one would
// graft stale weights (SetCheckpoint re-arms with a fresh file).
func (mo *Monitor) adoptForeignLocked(eng *infer.Engine) {
	mo.adoptLocked(eng)
	mo.autoStuck = false
	if mo.ckptArmed {
		mo.ckptArmed = false
		mo.lastErr = "serving engine changed hands; checkpoint repair disarmed until SetCheckpoint"
	}
	mo.journal(obs.Event{Type: obs.EvAdopt, Version: mo.srv.ModelVersion(),
		Detail: "serving engine changed hands; re-signed as new baseline"})
}

// masksLocked reads the verdict table into the two mask tiers the
// serving views consume — alpha masks for quarantined learners, packed
// healthy-dimension masks (nil when none) for dimension-masked ones —
// leaving out the learners in except, which a repair is verifying at
// unmasked fidelity.
func (mo *Monitor) masksLocked(except []int) (masked []bool, healthy [][]uint64) {
	masked = make([]bool, len(mo.ledger))
	for i, e := range mo.ledger {
		if slices.Contains(except, i) {
			continue
		}
		if e.quarantined {
			masked[i] = true
		} else if segs := e.maskedSegs(); len(segs) > 0 {
			if healthy == nil {
				healthy = make([][]uint64, len(mo.ledger))
			}
			healthy[i] = segMask(e.dims, mo.cfg.SegmentWords, segs)
		}
	}
	return masked, healthy
}

// installMaskLocked rebuilds the serving engine for the current
// two-tier quarantine masks and installs it via compare-and-swap,
// reporting whether it landed. A false return means the serving engine
// changed hands mid-pass (operator checkpoint, trainer retrain): the
// stale masked view must NOT revert that swap, so nothing is installed
// and the next scrub adopts the new engine and re-evaluates.
func (mo *Monitor) installMaskLocked() (bool, error) {
	masked, healthy := mo.masksLocked(nil)
	eng, err := infer.RemaskDims(mo.cur, mo.base, masked, healthy)
	if err != nil {
		return false, fmt.Errorf("reliability: %w", err)
	}
	swapped, err := mo.srv.SwapIf(mo.cur, eng)
	if err != nil {
		return false, fmt.Errorf("reliability: %w", err)
	}
	if !swapped {
		return false, nil
	}
	mo.cur = eng
	return true, nil
}

// need is what one masked learner's repair must bring back from outside
// its own memory: the listed float segments — every segment for a
// condemned learner or a frozen snapshot — or none when only quantized
// planes derived from intact float memory are damaged.
type need struct {
	learner int
	segs    []int
}

// restoreSource is one entry in Repair's ordered source list. restore
// serves what it can of the waiting needs: it restores learners in
// place and returns them, or returns an engine replacing the whole
// ensemble, which serves every waiting learner. Learners it leaves wait
// for the next source, and err says why they were left. It runs with
// mo.mu held and releases it around slow I/O; passMu keeps the pass
// exclusive meanwhile.
type restoreSource struct {
	name    string
	restore func(report *RepairReport, waiting []need) (done []int, next *infer.Engine, err error)
}

// Repair restores every masked learner — fully quarantined or
// dimension-masked — through the first source in the ordered list that
// can serve it:
//
//   - "rethreshold": only quantized planes are damaged and the float
//     memory behind them verifies, so the shared tail's surgical
//     re-threshold heals the learner without outside help.
//   - "checkpoint": corrupted float segments restore exactly those
//     dimension ranges from the verified checkpoint through the
//     learner's locked RestoreSegments (a condemned learner restores
//     every segment); a frozen binary snapshot, which has no float
//     memory, reloads wholesale.
//   - "trainer": one hot retrain over the trainer's buffer rebuilds the
//     whole ensemble.
//
// A source that is not configured, or fails, passes its learners on to
// the next; those no source could serve are reported failed and stay
// masked. Every source ends in one tail (finishLocked): the restored
// learners are canary-verified at the fidelity they would serve at,
// re-signed, and removed from both mask tiers, and the rebuilt engine
// installs through the server's compare-and-swap.
func (mo *Monitor) Repair() (RepairReport, error) {
	mo.passMu.Lock()
	defer mo.passMu.Unlock()
	mo.passCorr = mo.cfg.Journal.NewCorr()
	// Runs after mu's deferred unlock (LIFO), so the durable ledger
	// snapshot includes this pass's repair counts.
	defer mo.persistState()
	mo.mu.Lock()
	defer mo.mu.Unlock()
	start := time.Now()
	report := RepairReport{}
	defer func() {
		report.TookMS = time.Since(start).Seconds() * 1e3
		// A pass that restored nothing while something stayed
		// quarantined cannot succeed by repetition; park the background
		// auto-repair until the picture changes.
		mo.autoStuck = len(report.Repaired) == 0 && len(report.Failed) > 0
	}()

	waiting := mo.needsLocked()
	if len(waiting) == 0 {
		report.Reason = "nothing quarantined"
		return report, nil
	}
	affected := learnersOf(waiting)
	var restored []int
	why := fmt.Errorf("reliability: no armed checkpoint or trainer to restore the damaged memory from")
	for _, src := range []restoreSource{
		{"rethreshold", mo.restorePlanes},
		{"checkpoint", mo.restoreCheckpoint},
		{"trainer", mo.restoreTrainer},
	} {
		done, next, err := src.restore(&report, waiting)
		if err != nil {
			why = err
		}
		if next != nil {
			report.Source = src.name
			return report, mo.finishLocked(&report, next, affected)
		}
		if len(done) > 0 {
			report.Source = src.name
			restored = append(restored, done...)
			waiting = slices.DeleteFunc(waiting, func(n need) bool { return slices.Contains(done, n.learner) })
		}
		if len(waiting) == 0 {
			break
		}
	}
	if len(waiting) > 0 {
		mo.failRepair(&report, learnersOf(waiting), why)
	}
	if len(restored) == 0 {
		report.Reason = "no repair source for any quarantined learner"
		return report, nil
	}
	return report, mo.finishLocked(&report, mo.cur, restored)
}

// needsLocked reads the verdict table into one restore need per masked
// learner. The float segments to restore are what the scrub attributed
// to float memory, unioned with a fresh-signature recheck — float
// corruption that landed between the scrub and this repair must not be
// re-thresholded into the planes and re-signed as healthy. A learner is
// restored whole when the canary condemned memory its signatures vouch
// for, when its version moved since the scrub without an announced
// mutation behind it (the same hazard with no attribution), and
// always on a frozen snapshot, which has no float memory to check.
func (mo *Monitor) needsLocked() []need {
	isFrozen := frozen(mo.cur)
	var sigs []learnerSig
	if !isFrozen {
		sigs = signModel(mo.base, nil, mo.cfg.SegmentWords)
	}
	var needs []need
	for i, e := range mo.ledger {
		masked := e.maskedSegs()
		if !e.quarantined && len(masked) == 0 {
			continue
		}
		n := need{learner: i}
		switch {
		case isFrozen, e.canarySuspect,
			sigs[i].version != e.sig.version &&
				!e.hasMatchingPending(&sigs[i]) && !e.pendingNewerThan(sigs[i].version):
			for s := range e.segs {
				n.segs = append(n.segs, s)
			}
		default:
			var fresh []int
			if sigs[i].version == e.sig.version {
				fresh = floatBadSegs(&e.sig, &sigs[i], nil)
			}
			for s, st := range e.segs {
				if st == segFloat || slices.Contains(fresh, s) {
					n.segs = append(n.segs, s)
				}
			}
		}
		needs = append(needs, n)
	}
	return needs
}

// learnersOf lists the learners of needs.
func learnersOf(needs []need) []int {
	out := make([]int, len(needs))
	for k, n := range needs {
		out[k] = n.learner
	}
	return out
}

// restorePlanes serves every learner whose float memory verifies: the
// shared tail re-thresholds its planes from that memory.
func (mo *Monitor) restorePlanes(_ *RepairReport, waiting []need) ([]int, *infer.Engine, error) {
	var done []int
	for _, n := range waiting {
		if len(n.segs) == 0 {
			done = append(done, n.learner)
		}
	}
	return done, nil, nil
}

// restoreCheckpoint restores the waiting learners' float segments from
// the armed checkpoint, or hands a frozen snapshot's reload back as a
// replacement engine. A bad or missing checkpoint dooms only the
// learners that needed it.
func (mo *Monitor) restoreCheckpoint(report *RepairReport, waiting []need) ([]int, *infer.Engine, error) {
	if mo.cfg.CheckpointPath == "" || !mo.ckptArmed {
		return nil, nil, nil
	}
	cur, path := mo.cur, mo.cfg.CheckpointPath
	// The checkpoint read is disk I/O that can be slow at paper scale:
	// release the state lock so Status keeps answering. Re-validating the
	// geometry here matters: the file may have been rotated since it was
	// armed.
	mo.mu.Unlock()
	ckpt, err := loadCheckpoint(cur, path)
	mo.mu.Lock()
	if err != nil {
		return nil, nil, err
	}
	if frozen(cur) {
		return nil, ckpt, nil
	}
	var done []int
	for _, n := range waiting {
		ranges := make([][2]int, len(n.segs))
		for k, s := range n.segs {
			lo, hi := segDimRange(mo.ledger[n.learner].dims, mo.cfg.SegmentWords, s)
			ranges[k] = [2]int{lo, hi}
		}
		// The checkpoint model is private to this call, so its class
		// vectors can be read directly; the restore goes through the
		// live learner's write lock.
		//hdlint:ignore locksafety checkpoint model is private to this call; no concurrent readers
		src := ckpt.Model().Learners[n.learner].Class
		if rerr := mo.base.Learners[n.learner].RestoreSegments(src, ranges); rerr != nil {
			err = rerr
			continue
		}
		report.Segments += len(n.segs)
		done = append(done, n.learner)
	}
	return done, nil, err
}

// restoreTrainer rebuilds the whole ensemble through the trainer's
// hot-retrain path, which installs the refit itself. The retrain is a
// full refit that can run for minutes at paper scale, so the state lock
// is released for its duration.
func (mo *Monitor) restoreTrainer(_ *RepairReport, _ []need) ([]int, *infer.Engine, error) {
	if mo.cfg.Trainer == nil {
		return nil, nil, nil
	}
	mo.mu.Unlock()
	rr, err := mo.cfg.Trainer.Retrain()
	mo.mu.Lock()
	if err != nil {
		return nil, nil, err
	}
	if !rr.Swapped {
		return nil, nil, fmt.Errorf("reliability: trainer retrain skipped: %s", rr.Reason)
	}
	// The refit model no longer derives from the configured checkpoint;
	// checkpoint repair stays off until SetCheckpoint re-arms it.
	mo.ckptArmed = false
	return nil, mo.srv.Engine(), nil
}

// finishLocked is the tail every restore source shares. next is the
// engine the restored memory lives behind: the current engine after an
// in-place restore, whose restored learners are canary-verified and
// re-signed here, or a replacement (snapshot reload, refit) whose memory
// is new throughout, so adoption re-signs and re-baselines the whole
// ledger. The verified learners' events are journaled, and the result
// installs through compare-and-swap — never reverting a swap that
// landed mid-pass.
func (mo *Monitor) finishLocked(report *RepairReport, next *infer.Engine, restored []int) error {
	inPlace := next == mo.cur
	if inPlace {
		var err error
		if restored, err = mo.verifyLocked(report, restored); err != nil || len(restored) == 0 {
			return err
		}
	}
	report.Repaired = restored
	mo.repairs.Add(uint64(len(restored)))
	mo.journal(obs.Event{Type: obs.EvRepair, Learners: restored,
		Detail: fmt.Sprintf("source=%s segments=%d", report.Source, report.Segments)})
	mo.journal(obs.Event{Type: obs.EvUnmask, Learners: restored, Detail: "restored to full vote"})

	var swapped bool
	var err error
	switch {
	case inPlace:
		swapped, err = mo.installMaskLocked()
	case next == mo.srv.Engine(): // the trainer installed its refit itself
		swapped = true
	default:
		swapped, err = mo.srv.SwapIf(mo.cur, next)
	}
	if err != nil {
		mo.lastErr = err.Error()
		return err
	}
	if !inPlace && swapped {
		mo.adoptLocked(next)
	}
	report.Swapped = swapped
	if !swapped {
		report.Reason = "serving engine changed hands mid-repair; the next scrub adopts it"
	}
	mo.lastErr = ""
	return nil
}

// verifyLocked re-thresholds the restored learners' planes from their
// (now clean) float memory, re-signs the model, and scores the candidate
// engine — the restored learners unmasked, every other mask kept — on
// the canary. Learners that verify take their fresh signatures and clear
// their rows; learners that still score collapsed are reported failed
// and stay masked. It returns the verified learners.
func (mo *Monitor) verifyLocked(report *RepairReport, restored []int) ([]int, error) {
	cur, base := mo.cur, mo.base
	canaryX, canaryY := mo.canaryX, mo.canaryY
	masked, healthy := mo.masksLocked(restored)
	segWords := mo.cfg.SegmentWords
	// The sweep walks model memory: run it with the state lock released
	// (like Scrub's heavy reads) so Status keeps answering. passMu keeps
	// the state it reads stable.
	mo.mu.Unlock()
	var err error
	if bin := cur.Binary(); bin != nil {
		// Silent plane corruption never bumps versions and would survive
		// a version-gated refresh, so the named learners re-quantize
		// unconditionally; unrepaired learners keep their masked planes.
		err = bin.Rethreshold(restored...)
	}
	var fresh []learnerSig
	var acc []float64
	if err == nil {
		fresh = signModel(base, cur.Binary(), segWords)
		if len(canaryX) > 0 {
			var cand *infer.Engine
			if cand, err = infer.RemaskDims(cur, base, masked, healthy); err == nil {
				acc, err = cand.EvaluateLearners(canaryX, canaryY)
			}
		}
	}
	mo.mu.Lock()
	if err != nil {
		return nil, mo.failRepair(report, restored, err)
	}
	var verified []int
	for _, i := range restored {
		e := mo.ledger[i]
		if acc != nil {
			e.last = acc[i]
			if e.hasCanary && e.baseline-acc[i] > mo.cfg.QuarantineDrop {
				// Restored memory still scores collapsed: the damage is
				// upstream of what this pass can fix.
				mo.failRepair(report, []int{i}, fmt.Errorf("reliability: learner %d still scores collapsed after restore", i))
				continue
			}
			e.baseline = acc[i]
		}
		e.restored(fresh[i])
		verified = append(verified, i)
	}
	return verified, nil
}

// failRepair marks the listed learners failed on the report, counts
// the failed attempts, and records the error for Status.
func (mo *Monitor) failRepair(report *RepairReport, failed []int, err error) error {
	report.Failed = append(report.Failed, failed...)
	mo.repairFails.Add(uint64(len(failed)))
	mo.lastErr = err.Error()
	mo.journal(obs.Event{Type: obs.EvRepair, Learners: failed,
		Detail: "failed: " + err.Error()})
	return err
}

// journal appends an event stamped with the running pass's correlation
// ID. Without a configured journal it is a no-op; the journal mutex is
// a leaf, so appending with mo.mu held is safe.
func (mo *Monitor) journal(e obs.Event) {
	if mo.cfg.Journal == nil {
		return
	}
	e.Corr = mo.passCorr
	mo.cfg.Journal.Append(e)
}

// Status snapshots the health ledger and counters for /reliability and
// the healthz reliability block.
func (mo *Monitor) Status() serve.ReliabilityStatus {
	mo.mu.Lock()
	defer mo.mu.Unlock()
	st := serve.ReliabilityStatus{
		Learners:     len(mo.ledger),
		SegmentWords: mo.cfg.SegmentWords,
		Scrubs:       mo.scrubs.Load(),
		Detections:   mo.detections.Load(),
		Quarantines:  mo.quarantines.Load(),
		Repairs:      mo.repairs.Load(),
		EncoderHeals: mo.encoderHeals.Load(),
		RepairFails:  mo.repairFails.Load(),
		CanaryRows:   len(mo.canaryX),
		LastScrubMS:  mo.lastScrubMS,
		LastError:    mo.lastErr,
	}
	st.Ledger = make([]serve.LearnerHealth, len(mo.ledger))
	for i, e := range mo.ledger {
		h := serve.LearnerHealth{
			State:           "healthy",
			HealthyFraction: 1,
			IntegrityFaults: e.integrityFaults,
			CanaryFaults:    e.canaryFaults,
			Repairs:         e.repairs,
		}
		if e.hasCanary {
			h.CanaryBaseline, h.CanaryLast = e.baseline, e.last
		}
		switch {
		case e.quarantined:
			h.State = "quarantined"
			h.HealthyFraction = 0
			st.Quarantined = append(st.Quarantined, i)
		case len(e.maskedSegs()) > 0:
			h.State = "degraded"
			h.MaskedWords = e.maskedWords(mo.cfg.SegmentWords)
			h.HealthyFraction = e.healthyFraction(mo.cfg.SegmentWords)
			st.MaskedWords += h.MaskedWords
			st.DimMasked = append(st.DimMasked, i)
		}
		st.Ledger[i] = h
	}
	st.Degraded = len(st.Quarantined) > 0 || len(st.DimMasked) > 0
	return st
}

// Start launches the background scrub loop (no-op when ScrubEvery is
// zero or a loop already runs). Each tick scrubs and, when anything is
// masked and a repair source exists, repairs; errors are recorded in
// Status rather than stopping the loop.
func (mo *Monitor) Start() {
	if mo.cfg.ScrubEvery <= 0 {
		return
	}
	mo.loopMu.Lock()
	defer mo.loopMu.Unlock()
	if mo.stop != nil {
		return
	}
	mo.stop = make(chan struct{})
	mo.done = make(chan struct{})
	go mo.loop(mo.stop, mo.done)
}

func (mo *Monitor) loop(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	ticker := time.NewTicker(mo.cfg.ScrubEvery)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			report, err := mo.Scrub()
			if err != nil {
				continue
			}
			if !report.Adopted && mo.autoRepairable() {
				_, _ = mo.Repair()
			}
		}
	}
}

// autoRepairable reports whether the background loop should attempt a
// repair: something must be masked, a repair source must exist for the
// current backend, and the previous attempt must not have been a total
// failure that nothing has changed since (retrying those only burns a
// full re-threshold pass per tick and inflates the failure counters).
func (mo *Monitor) autoRepairable() bool {
	mo.mu.Lock()
	defer mo.mu.Unlock()
	if mo.autoStuck || !slices.ContainsFunc(mo.ledger, func(e *entry) bool {
		return e.quarantined || len(e.maskedSegs()) > 0
	}) {
		return false
	}
	if mo.cfg.CheckpointPath != "" && mo.ckptArmed || mo.cfg.Trainer != nil {
		return true
	}
	return mo.cur.Binary() != nil && !frozen(mo.cur) // plane corruption re-thresholds from float memory
}

// Stop halts the background loop and waits for an in-flight pass to
// finish. Safe to call without Start and more than once.
func (mo *Monitor) Stop() {
	mo.loopMu.Lock()
	stop, done := mo.stop, mo.done
	mo.stop, mo.done = nil, nil
	mo.loopMu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

// compatible verifies that a checkpoint's geometry matches the live
// model's, so a per-learner restore cannot graft vectors from a
// different hyperspace.
func compatible(live, ckpt *boosthd.Model) error {
	switch {
	case ckpt.Cfg.TotalDim != live.Cfg.TotalDim,
		ckpt.Cfg.NumLearners != live.Cfg.NumLearners,
		ckpt.Cfg.Classes != live.Cfg.Classes:
		return fmt.Errorf("checkpoint geometry %d/%d/%d does not match live model %d/%d/%d",
			ckpt.Cfg.TotalDim, ckpt.Cfg.NumLearners, ckpt.Cfg.Classes,
			live.Cfg.TotalDim, live.Cfg.NumLearners, live.Cfg.Classes)
	case ckpt.InputDim() != live.InputDim():
		return fmt.Errorf("checkpoint feature width %d does not match live model %d", ckpt.InputDim(), live.InputDim())
	case ckpt.Gamma() != live.Gamma():
		return fmt.Errorf("checkpoint encoder bandwidth %v does not match live model %v", ckpt.Gamma(), live.Gamma())
	}
	return nil
}
