package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Event types recorded by the journal. The set covers the reliability
// lifecycle (encoder heal, scrub → quarantine/mask → repair → swap),
// tenant residency churn, and model republishing, so the full
// self-healing story of a serving process is reconstructible from the
// sequence.
const (
	EvScrub          = "scrub"            // non-clean scrub verdict
	EvQuarantine     = "quarantine"       // learner alpha-masked out of the vote
	EvDimMask        = "dim_mask"         // dimension words masked within a learner
	EvUnmask         = "unmask"           // learner restored to full vote
	EvRepair         = "repair"           // repair attempt outcome (Detail names the source)
	EvSwap           = "engine_swap"      // serving engine atomically replaced
	EvAdopt          = "adopt"            // monitor adopted a foreign engine as baseline
	EvRetrain        = "retrain"          // trainer refit (base republish when swapped)
	EvInject         = "inject"           // chaos fault injection
	EvTenantEvict    = "tenant_evict"     // LRU pushed a resident tenant view out
	EvTenantColdLoad = "tenant_cold_load" // tenant delta loaded from the store
	EvTenantRebuild  = "tenant_rebuild"   // resident view rebuilt onto a new base
	EvTenantCompact  = "tenant_compact"   // delta journal folded into a full record
	EvEncoderHeal    = "encoder_heal"     // encoder plane regenerated from its stream roots
)

// Event is one journal entry. Seq is a process-monotonic sequence
// number (dense, starts at 1), Corr groups the events of one logical
// pass (one scrub/repair cycle, one retrain, one request), and the
// attribution fields are filled where they apply.
type Event struct {
	Seq      uint64    `json:"seq"`
	Time     time.Time `json:"time"`
	Type     string    `json:"type"`
	Corr     uint64    `json:"corr,omitempty"`
	Tenant   string    `json:"tenant,omitempty"`
	Learners []int     `json:"learners,omitempty"`
	Segments []int     `json:"segments,omitempty"`
	Version  uint64    `json:"version,omitempty"`
	Detail   string    `json:"detail,omitempty"`
}

// Journal is a bounded in-memory ring of typed events, optionally
// mirrored to a JSONL file. Appends are rare (reliability and tenant
// lifecycle actions, not requests), so a single mutex around the ring
// and the file encoder is fine; the mutex is a leaf — Append never
// calls back into any other subsystem, so it is safe to append while
// holding monitor or registry locks.
type Journal struct {
	corr atomic.Uint64 // pass-correlation IDs

	mu   sync.Mutex
	ring []Event
	seq  uint64
	file *os.File
	enc  *json.Encoder
}

// NewJournal builds a journal retaining the last ringCap events.
// ringCap <= 0 defaults to 1024.
func NewJournal(ringCap int) *Journal {
	if ringCap <= 0 {
		ringCap = 1024
	}
	return &Journal{ring: make([]Event, ringCap)}
}

// Persist mirrors every subsequent append to a JSONL file (one event
// per line), creating or appending to path. Conventionally the file
// sits next to the reliability state file in the checkpoint directory.
func (j *Journal) Persist(path string) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("obs: open events file: %w", err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.file != nil {
		j.file.Close()
	}
	j.file = f
	j.enc = json.NewEncoder(f)
	return nil
}

// Close stops JSONL mirroring and closes the file, if any.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.enc = nil
	if j.file == nil {
		return nil
	}
	err := j.file.Close()
	j.file = nil
	return err
}

// NewCorr mints a correlation ID grouping the events of one logical
// pass. Nil-safe (returns 0, the "uncorrelated" ID).
func (j *Journal) NewCorr() uint64 {
	if j == nil {
		return 0
	}
	return j.corr.Add(1)
}

// Append stamps e with the next sequence number and the current wall
// time, stores it in the ring, and mirrors it to the JSONL file when
// persistence is enabled. Returns the assigned sequence number; nil
// receiver drops the event and returns 0.
func (j *Journal) Append(e Event) uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.seq++
	e.Seq = j.seq
	e.Time = time.Now()
	j.ring[(j.seq-1)%uint64(len(j.ring))] = e
	if j.enc != nil {
		// Best-effort: a full disk must not take down serving.
		_ = j.enc.Encode(&e)
	}
	return j.seq
}

// Seq reports the sequence number of the newest event (0 = none).
func (j *Journal) Seq() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq
}

// Events returns retained events with Seq > since, oldest first, at
// most max (max <= 0 returns the whole retained window).
func (j *Journal) Events(since uint64, max int) []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	lo := uint64(1)
	if n := uint64(len(j.ring)); j.seq > n {
		lo = j.seq - n + 1
	}
	if since+1 > lo {
		lo = since + 1
	}
	if lo > j.seq {
		return []Event{}
	}
	kept := j.seq - lo + 1
	if max > 0 && uint64(max) < kept {
		// Keep the newest max events of the requested range.
		lo = j.seq - uint64(max) + 1
		kept = uint64(max)
	}
	out := make([]Event, 0, kept)
	for s := lo; s <= j.seq; s++ {
		out = append(out, j.ring[(s-1)%uint64(len(j.ring))])
	}
	return out
}
