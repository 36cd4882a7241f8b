package trainer

import (
	"errors"
	"sync"
	"testing"
	"time"

	"boosthd/internal/infer"
	"boosthd/internal/serve"
)

func tenantFixture(t testing.TB, cfg TenantConfig) (*serve.Server, *serve.TenantRegistry, *TenantTrainer, [][]float64, []int) {
	t.Helper()
	m, X, y := fixture(t, 480, 4)
	s, err := serve.NewServer(infer.NewEngine(m), serve.Config{MaxBatch: 8, MaxWait: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	reg, err := serve.NewTenantRegistry(s, serve.TenantRegistryConfig{
		Store: serve.NewFileDeltaStore(t.TempDir()),
	})
	if err != nil {
		t.Fatal(err)
	}
	tt, err := NewTenantTrainer(reg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, reg, tt, X, y
}

// feed buffers n labeled samples for the tenant, cycling through (X, y)
// from a per-tenant offset so sibling tenants see different data.
func feed(t *testing.T, tt *TenantTrainer, tenant string, X [][]float64, y []int, off, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		j := (off + i) % len(X)
		if err := tt.ObserveTenant(tenant, X[j], y[j]); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTenantObserveValidation: bad tenant IDs, labels, feature widths
// and overflowing feature values are client errors wrapping
// serve.ErrBadInput; nothing buffers.
func TestTenantObserveValidation(t *testing.T) {
	_, _, tt, X, y := tenantFixture(t, TenantConfig{})
	if err := tt.ObserveTenant("../etc", X[0], y[0]); !errors.Is(err, serve.ErrBadInput) {
		t.Fatalf("bad tenant id: %v", err)
	}
	if err := tt.ObserveTenant("w1", X[0], 99); !errors.Is(err, serve.ErrBadInput) {
		t.Fatalf("bad label: %v", err)
	}
	if err := tt.ObserveTenant("w1", X[0][:3], y[0]); !errors.Is(err, serve.ErrBadInput) {
		t.Fatalf("bad width: %v", err)
	}
	overflow := append([]float64(nil), X[0]...)
	overflow[0] = 1e308
	if err := tt.ObserveTenant("w1", overflow, y[0]); !errors.Is(err, serve.ErrBadInput) {
		t.Fatalf("overflowing feature: %v", err)
	}
	if err := tt.ObserveTenantBatch("w1", [][]float64{X[0], overflow}, y[:2]); !errors.Is(err, serve.ErrBadInput) {
		t.Fatalf("overflowing batch feature: %v", err)
	}
	// Batch all-or-nothing: one bad row buffers nothing.
	if err := tt.ObserveTenantBatch("w1", X[:3], []int{0, 99, 1}); !errors.Is(err, serve.ErrBadInput) {
		t.Fatalf("bad batch label: %v", err)
	}
	if err := tt.ObserveTenantBatch("w1", X[:3], []int{0, 1}); !errors.Is(err, serve.ErrBadInput) {
		t.Fatalf("row/label mismatch: %v", err)
	}
	if got := tt.BufferLen("w1"); got != 0 {
		t.Fatalf("%d samples buffered through failed observes", got)
	}
	if err := tt.ObserveTenantBatch("w1", X[:3], y[:3]); err != nil {
		t.Fatal(err)
	}
	if got := tt.BufferLen("w1"); got != 3 {
		t.Fatalf("buffered %d, want 3", got)
	}
}

// TestTenantRetrainIsolation is the core multi-tenant contract: tenant
// A's retrain changes only tenant A's predictions. The shared base and
// tenant B's view are bit-for-bit untouched.
func TestTenantRetrainIsolation(t *testing.T) {
	s, reg, tt, X, y := tenantFixture(t, TenantConfig{MinRetrain: 32})
	baseModel := s.Engine().Model()
	baseFP := baseModel.Fingerprint()
	basePred, err := s.Engine().PredictBatch(X)
	if err != nil {
		t.Fatal(err)
	}

	// Tenant B personalizes first; snapshot its predictions.
	feed(t, tt, "tenant-b", X, y, 50, 64)
	if rep, err := tt.RetrainTenant("tenant-b"); err != nil || !rep.Swapped {
		t.Fatalf("tenant-b retrain: %+v err=%v", rep, err)
	}
	engB, err := reg.Resolve("tenant-b")
	if err != nil {
		t.Fatal(err)
	}
	predB, err := engB.PredictBatch(X)
	if err != nil {
		t.Fatal(err)
	}

	// Tenant A retrains on a different slice.
	feed(t, tt, "tenant-a", X, y, 0, 64)
	rep, err := tt.RetrainTenant("tenant-a")
	if err != nil || !rep.Swapped {
		t.Fatalf("tenant-a retrain: %+v err=%v", rep, err)
	}
	if rep.Mode != "tenant-delta" || rep.Samples != 64 {
		t.Fatalf("report %+v", rep)
	}

	// The shared base never moved: same model pointer, same fingerprint,
	// same predictions.
	if s.Engine().Model() != baseModel {
		t.Fatal("tenant retrain replaced the shared base model")
	}
	if baseModel.Fingerprint() != baseFP {
		t.Fatal("tenant retrain moved the base class memory")
	}
	baseAfter, err := s.Engine().PredictBatch(X)
	if err != nil {
		t.Fatal(err)
	}
	for i := range basePred {
		if baseAfter[i] != basePred[i] {
			t.Fatalf("base prediction %d changed after tenant retrain", i)
		}
	}
	// Tenant B's view is untouched.
	engB2, err := reg.Resolve("tenant-b")
	if err != nil {
		t.Fatal(err)
	}
	predB2, err := engB2.PredictBatch(X)
	if err != nil {
		t.Fatal(err)
	}
	for i := range predB {
		if predB2[i] != predB[i] {
			t.Fatalf("tenant-b prediction %d changed after tenant-a retrain", i)
		}
	}
	if st := tt.Stats(); st.Retrains != 2 || st.Observed != 128 || st.Failures != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestTenantRetrainPropagatesBaseSwap: a base republish reaches tenant
// views through the registry — the tenant keeps its personalization,
// rebuilt over the new base.
func TestTenantRetrainPropagatesBaseSwap(t *testing.T) {
	s, reg, tt, X, y := tenantFixture(t, TenantConfig{MinRetrain: 32})
	feed(t, tt, "w1", X, y, 0, 64)
	if rep, err := tt.RetrainTenant("w1"); err != nil || !rep.Swapped {
		t.Fatalf("retrain: %+v err=%v", rep, err)
	}
	// Swap the base to the binary backend (same model, new engine).
	be, err := infer.NewBinaryEngine(s.Engine().Model())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Swap(be); err != nil {
		t.Fatal(err)
	}
	eng, err := reg.Resolve("w1")
	if err != nil {
		t.Fatal(err)
	}
	if eng.Backend() != infer.PackedBinary {
		t.Fatal("tenant view did not follow the base swap")
	}
	if eng == be {
		t.Fatal("tenant lost its delta across the base swap")
	}
}

// TestTenantRetrainUnderfilled: below MinRetrain (or with one class) the
// retrain is a report, not an error, and installs nothing.
func TestTenantRetrainUnderfilled(t *testing.T) {
	_, reg, tt, X, y := tenantFixture(t, TenantConfig{MinRetrain: 32})
	feed(t, tt, "w1", X, y, 0, 8)
	rep, err := tt.RetrainTenant("w1")
	if err != nil || rep.Swapped {
		t.Fatalf("underfilled retrain: %+v err=%v", rep, err)
	}
	if rep.Reason == "" || rep.Samples != 8 {
		t.Fatalf("underfilled report %+v", rep)
	}
	// Single-class buffer: refit would be degenerate.
	one := 0
	for i := 0; one < 40; i++ {
		if y[i%len(y)] == 0 {
			if err := tt.ObserveTenant("mono", X[i%len(X)], 0); err != nil {
				t.Fatal(err)
			}
			one++
		}
	}
	rep, err = tt.RetrainTenant("mono")
	if err != nil || rep.Swapped {
		t.Fatalf("single-class retrain: %+v err=%v", rep, err)
	}
	if st := reg.Stats(); st.Residents != 0 {
		t.Fatalf("underfilled retrains installed a delta: %+v", st)
	}
}

// TestTenantRetrainBusy: concurrent retrains for the SAME tenant answer
// ErrBusy; distinct tenants proceed concurrently.
func TestTenantRetrainBusy(t *testing.T) {
	_, _, tt, X, y := tenantFixture(t, TenantConfig{MinRetrain: 32})
	feed(t, tt, "w1", X, y, 0, 120)
	feed(t, tt, "w2", X, y, 60, 120)

	var wg sync.WaitGroup
	const dups = 4
	errs := make([]error, dups)
	for i := 0; i < dups; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = tt.RetrainTenant("w1")
		}(i)
	}
	wg.Wait()
	busy, ok := 0, 0
	for _, err := range errs {
		switch {
		case err == nil:
			ok++
		case errors.Is(err, serve.ErrBusy):
			busy++
		default:
			t.Fatalf("unexpected retrain error: %v", err)
		}
	}
	if ok == 0 || ok+busy != dups {
		t.Fatalf("%d ok, %d busy of %d duplicate retrains", ok, busy, dups)
	}
	// A different tenant is never blocked by w1's lock.
	if rep, err := tt.RetrainTenant("w2"); err != nil || !rep.Swapped {
		t.Fatalf("w2 retrain blocked: %+v err=%v", rep, err)
	}
}

// TestTenantBufferEviction: past MaxTenants the least recently observed
// tenant's buffer is dropped (counted), while its persisted delta — and
// therefore its serving view — survives.
func TestTenantBufferEviction(t *testing.T) {
	_, reg, tt, X, y := tenantFixture(t, TenantConfig{MinRetrain: 8, MaxTenants: 2})
	feed(t, tt, "w1", X, y, 0, 16)
	if rep, err := tt.RetrainTenant("w1"); err != nil || !rep.Swapped {
		t.Fatalf("w1 retrain: %+v err=%v", rep, err)
	}
	engBefore, err := reg.Resolve("w1")
	if err != nil {
		t.Fatal(err)
	}
	want, err := engBefore.PredictBatch(X[:20])
	if err != nil {
		t.Fatal(err)
	}

	// Two more tenants push w1's buffer out of the LRU.
	feed(t, tt, "w2", X, y, 20, 4)
	feed(t, tt, "w3", X, y, 40, 4)
	st := tt.Stats()
	if st.Tenants != 2 || st.Dropped != 1 {
		t.Fatalf("after eviction: %+v", st)
	}
	if got := tt.BufferLen("w1"); got != 0 {
		t.Fatalf("evicted tenant still holds %d buffered samples", got)
	}
	// The delta (and serving view) survive buffer eviction.
	eng, err := reg.Resolve("w1")
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.PredictBatch(X[:20])
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("w1 view changed after buffer eviction (row %d)", i)
		}
	}
}

// TenantTrainerStats snapshots the tenant trainer counters.
type TenantTrainerStats struct {
	Tenants  int    `json:"tenants"`  // tenant buffers resident
	Observed uint64 `json:"observed"` // samples buffered across tenants
	Retrains uint64 `json:"retrains"` // successful delta installs
	Failures uint64 `json:"failures"` // retrains that errored
	Dropped  uint64 `json:"dropped"`  // tenant buffers evicted by MaxTenants
}

// Stats snapshots the tenant trainer counters.
func (t *TenantTrainer) Stats() TenantTrainerStats {
	t.mu.Lock()
	n := t.lru.Len()
	t.mu.Unlock()
	return TenantTrainerStats{
		Tenants:  n,
		Observed: t.observed.Load(),
		Retrains: t.retrains.Load(),
		Failures: t.failures.Load(),
		Dropped:  t.dropped.Load(),
	}
}

// BufferLen reports how many samples tenant has buffered.
func (t *TenantTrainer) BufferLen(tenant string) int {
	t.mu.Lock()
	el, ok := t.streams[tenant]
	t.mu.Unlock()
	if !ok {
		return 0
	}
	return el.Value.(*tenantStream).buf.Len()
}
