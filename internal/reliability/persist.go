package reliability

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"boosthd/internal/wire"
)

// persistedLearner is one ledger row's durable slice: the fault history
// and the canary/criticality baselines. Quarantine and dimension-mask
// state is deliberately NOT persisted — masks describe corruption in a
// specific process's memory, and a restart reloads the model from its
// checkpoint, so carrying masks across would quarantine healthy memory.
type persistedLearner struct {
	Dims            int       `json:"dims"`
	IntegrityFaults uint64    `json:"integrity_faults,omitempty"`
	CanaryFaults    uint64    `json:"canary_faults,omitempty"`
	Repairs         uint64    `json:"repairs,omitempty"`
	HasCanary       bool      `json:"has_canary,omitempty"`
	Baseline        float64   `json:"canary_baseline,omitempty"`
	Last            float64   `json:"canary_last,omitempty"`
	HasCrit         bool      `json:"has_crit,omitempty"`
	Crit            []float64 `json:"criticality,omitempty"`
}

// persistedState is the reliability monitor's durable snapshot.
type persistedState struct {
	// ModelFingerprint is informational (the base model's content hash at
	// save time); loading guards on geometry, not the fingerprint —
	// streaming online updates legitimately move the memory between a
	// save and the next start, and the fault history stays meaningful for
	// the same deployment.
	ModelFingerprint string             `json:"model_fingerprint"`
	SegmentWords     int                `json:"segment_words"`
	SavedAt          string             `json:"saved_at"`
	Learners         []persistedLearner `json:"learners"`
	Scrubs           uint64             `json:"scrubs"`
	Detections       uint64             `json:"detections"`
	Quarantines      uint64             `json:"quarantines"`
	Repairs          uint64             `json:"repairs"`
	RepairFails      uint64             `json:"repair_failures"`
	EncoderHeals     uint64             `json:"encoder_heals,omitempty"`
}

// SaveState persists the health ledger and criticality baselines to
// path, atomically and durably: the temp file is synced before the
// rename and the directory after it, so a crash leaves either the old
// state or the new one on disk, never an empty or torn file under path.
// The monitor keeps answering while the snapshot is taken; only the
// state capture holds the lock.
func (mo *Monitor) SaveState(path string) error {
	if path == "" {
		return fmt.Errorf("reliability: save state: empty path")
	}
	mo.mu.Lock()
	st := persistedState{
		ModelFingerprint: fmt.Sprintf("%016x", mo.base.Fingerprint()),
		SegmentWords:     mo.cfg.SegmentWords,
		SavedAt:          time.Now().UTC().Format(time.RFC3339),
		Learners:         make([]persistedLearner, len(mo.ledger)),
		Scrubs:           mo.scrubs.Load(),
		Detections:       mo.detections.Load(),
		Quarantines:      mo.quarantines.Load(),
		Repairs:          mo.repairs.Load(),
		RepairFails:      mo.repairFails.Load(),
		EncoderHeals:     mo.encoderHeals.Load(),
	}
	for i, e := range mo.ledger {
		st.Learners[i] = persistedLearner{
			Dims:            e.dims,
			IntegrityFaults: e.integrityFaults,
			CanaryFaults:    e.canaryFaults,
			Repairs:         e.repairs,
			HasCanary:       e.hasCanary,
			Baseline:        e.baseline,
			Last:            e.last,
			HasCrit:         e.hasCrit,
			Crit:            append([]float64(nil), e.crit...),
		}
	}
	mo.mu.Unlock()

	data, err := json.MarshalIndent(&st, "", "  ")
	if err != nil {
		return fmt.Errorf("reliability: save state: %w", err)
	}
	err = wire.WriteFileAtomic(path, ".reliability_state-*.json", func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
	if err != nil {
		return fmt.Errorf("reliability: save state: %w", err)
	}
	return nil
}

// LoadState restores a persisted health ledger: per-learner fault
// counters, canary baselines, and segment-criticality baselines, plus
// the subsystem counters. The state must match the live geometry —
// learner count, per-learner dimensions, and signature segment width —
// or the load is rejected loudly (a state file from a different model
// shape describes different learners).
//
// Call order matters when a canary is configured: SetCanary recomputes
// fresh baselines, so load AFTER it for the persisted baselines (and the
// expensively-measured criticality ranking) to win — that continuity is
// the point of persisting them.
func (mo *Monitor) LoadState(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reliability: load state: %w", err)
	}
	var st persistedState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("reliability: load state: %w", err)
	}
	mo.mu.Lock()
	defer mo.mu.Unlock()
	if len(st.Learners) != len(mo.ledger) {
		return fmt.Errorf("reliability: load state: %d persisted learners, live model has %d",
			len(st.Learners), len(mo.ledger))
	}
	if st.SegmentWords != mo.cfg.SegmentWords {
		return fmt.Errorf("reliability: load state: persisted segment width %d, monitor uses %d",
			st.SegmentWords, mo.cfg.SegmentWords)
	}
	for i, pl := range st.Learners {
		e := mo.ledger[i]
		if pl.Dims != e.dims {
			return fmt.Errorf("reliability: load state: learner %d persisted with %d dims, live has %d",
				i, pl.Dims, e.dims)
		}
		if pl.HasCrit && len(pl.Crit) != len(e.segs) {
			return fmt.Errorf("reliability: load state: learner %d carries %d criticality segments, live has %d",
				i, len(pl.Crit), len(e.segs))
		}
	}
	for i, pl := range st.Learners {
		e := mo.ledger[i]
		e.integrityFaults = pl.IntegrityFaults
		e.canaryFaults = pl.CanaryFaults
		e.repairs = pl.Repairs
		if pl.HasCanary {
			e.hasCanary = true
			e.baseline = pl.Baseline
			e.last = pl.Last
		}
		if pl.HasCrit {
			e.hasCrit = true
			e.crit = append([]float64(nil), pl.Crit...)
		}
	}
	mo.scrubs.Store(st.Scrubs)
	mo.detections.Store(st.Detections)
	mo.quarantines.Store(st.Quarantines)
	mo.repairs.Store(st.Repairs)
	mo.repairFails.Store(st.RepairFails)
	mo.encoderHeals.Store(st.EncoderHeals)
	return nil
}

// persistState writes the state to the configured StatePath, recording
// (not returning) failures — it runs on the tail of scrub and repair
// passes, whose reports must not be replaced by a disk error.
func (mo *Monitor) persistState() {
	if mo.cfg.StatePath == "" {
		return
	}
	if err := mo.SaveState(mo.cfg.StatePath); err != nil {
		mo.mu.Lock()
		mo.lastErr = err.Error()
		mo.mu.Unlock()
	}
}
