package reliability

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"boosthd/internal/boosthd"
	"boosthd/internal/faults"
	"boosthd/internal/infer"
	"boosthd/internal/serve"
)

func newMonitorOver(t testing.TB, m *boosthd.Model, cfg Config) (*serve.Server, *Monitor) {
	t.Helper()
	eng, err := infer.NewBinaryEngine(m)
	if err != nil {
		t.Fatal(err)
	}
	s, err := serve.NewServer(eng, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	mo, err := New(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, mo
}

// TestStateRoundTrip: fault history, canary baselines, criticality
// baselines, and subsystem counters survive a save/load cycle into a
// fresh monitor — the restart continuity the health ledger exists for.
func TestStateRoundTrip(t *testing.T) {
	m, X, y := fixture(t, 640, 4)
	_, mo := newMonitorOver(t, m, Config{})
	if err := mo.SetCanary(X[:60], y[:60]); err != nil {
		t.Fatal(err)
	}

	// Accumulate real history: corrupt a learner, scrub to detect it.
	inj, err := faults.NewInjector(2e-3, rand.New(rand.NewSource(99)))
	if err != nil {
		t.Fatal(err)
	}
	corruptLearner(t, m, 1, inj)
	if _, err := mo.Scrub(); err != nil {
		t.Fatal(err)
	}
	// The fixture's stored encoders have no plane to heal; stand in for
	// a scrub that healed two learners' encoder planes.
	mo.encoderHeals.Add(2)
	before := mo.Status()
	if before.Detections == 0 {
		t.Fatal("fixture: scrub detected nothing; state has no history to persist")
	}

	path := filepath.Join(t.TempDir(), "state.json")
	if err := mo.SaveState(path); err != nil {
		t.Fatal(err)
	}

	// A fresh process: same model geometry, new monitor, canary set first
	// (the documented call order), then the persisted ledger wins.
	m2, X2, y2 := fixture(t, 640, 4)
	_, mo2 := newMonitorOver(t, m2, Config{})
	if err := mo2.SetCanary(X2[:60], y2[:60]); err != nil {
		t.Fatal(err)
	}
	if err := mo2.LoadState(path); err != nil {
		t.Fatal(err)
	}
	after := mo2.Status()
	if after.Scrubs != before.Scrubs || after.Detections != before.Detections ||
		after.Quarantines != before.Quarantines || after.Repairs != before.Repairs ||
		after.RepairFails != before.RepairFails || after.EncoderHeals != before.EncoderHeals {
		t.Fatalf("counters: saved %+v, restored %+v", before, after)
	}
	if len(after.Ledger) != len(before.Ledger) {
		t.Fatalf("ledger length %d, want %d", len(after.Ledger), len(before.Ledger))
	}
	for i := range before.Ledger {
		b, a := before.Ledger[i], after.Ledger[i]
		if a.IntegrityFaults != b.IntegrityFaults || a.CanaryFaults != b.CanaryFaults ||
			a.Repairs != b.Repairs {
			t.Fatalf("learner %d fault history: saved %+v, restored %+v", i, b, a)
		}
		if a.CanaryBaseline != b.CanaryBaseline || a.CanaryLast != b.CanaryLast {
			t.Fatalf("learner %d canary baselines: saved %+v, restored %+v", i, b, a)
		}
		// Quarantine/mask state is deliberately process-local: the fresh
		// monitor's memory is clean, so nothing may be masked after load.
		if a.State != "healthy" {
			t.Fatalf("learner %d restored as %q; masks must not persist across restarts", i, a.State)
		}
	}
}

// TestStateGeometryGuard: a state file from a different model shape (or
// signature granularity) is rejected loudly, and the live ledger stays
// untouched.
func TestStateGeometryGuard(t *testing.T) {
	m, X, y := fixture(t, 640, 4)
	_, mo := newMonitorOver(t, m, Config{})
	if err := mo.SetCanary(X[:60], y[:60]); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "state.json")
	if err := mo.SaveState(path); err != nil {
		t.Fatal(err)
	}

	// Different learner count.
	m5, _, _ := fixture(t, 640, 5)
	_, mo5 := newMonitorOver(t, m5, Config{})
	if err := mo5.LoadState(path); err == nil || !strings.Contains(err.Error(), "learners") {
		t.Fatalf("learner-count mismatch accepted: %v", err)
	}
	// Different per-learner dims.
	m2, _, _ := fixture(t, 1280, 4)
	_, mo2 := newMonitorOver(t, m2, Config{})
	if err := mo2.LoadState(path); err == nil || !strings.Contains(err.Error(), "dims") {
		t.Fatalf("dim mismatch accepted: %v", err)
	}
	// Different signature segment width.
	mw, _, _ := fixture(t, 640, 4)
	_, mow := newMonitorOver(t, mw, Config{SegmentWords: 1})
	if err := mow.LoadState(path); err == nil || !strings.Contains(err.Error(), "segment width") {
		t.Fatalf("segment-width mismatch accepted: %v", err)
	}
	// Missing file surfaces os.ErrNotExist so callers can treat a fresh
	// start silently.
	if err := mo.LoadState(filepath.Join(t.TempDir(), "absent.json")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing state file: %v", err)
	}
	// Garbage is a loud parse error.
	bad := filepath.Join(t.TempDir(), "garbage.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := mo.LoadState(bad); err == nil {
		t.Fatal("garbage state file accepted")
	}
}

// TestStatePersistedOnScrub: with StatePath configured every scrub pass
// writes the ledger through — the durability contract behind
// -checkpoint-dir restarts.
func TestStatePersistedOnScrub(t *testing.T) {
	m, X, y := fixture(t, 640, 4)
	path := filepath.Join(t.TempDir(), "state.json")
	_, mo := newMonitorOver(t, m, Config{StatePath: path})
	if err := mo.SetCanary(X[:60], y[:60]); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("state file exists before any pass: %v", err)
	}
	if _, err := mo.Scrub(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("scrub did not persist state: %v", err)
	}
	// The written file round-trips into a compatible monitor.
	m2, _, _ := fixture(t, 640, 4)
	_, mo2 := newMonitorOver(t, m2, Config{})
	if err := mo2.LoadState(path); err != nil {
		t.Fatal(err)
	}
	if got, want := mo2.Status().Scrubs, mo.Status().Scrubs; got != want {
		t.Fatalf("restored scrub counter %d, want %d", got, want)
	}
	// Repair passes persist too (no-op repair still rewrites the file).
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if _, err := mo.Repair(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("repair did not persist state: %v", err)
	}
}
