package serve

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"boosthd/internal/boosthd"
	"boosthd/internal/hdc"
	"boosthd/internal/infer"
	"boosthd/internal/obs"
	"boosthd/internal/onlinehd"
)

// testDelta builds a tenant delta by rotating the base's class memory
// across classes (plus noise) for the given learners — deterministic in
// seed, geometry-compatible, and guaranteed to vote differently from the
// base so isolation failures cannot hide.
func testDelta(t testing.TB, m *boosthd.Model, idx []int, seed int64) *boosthd.Delta {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	d := &boosthd.Delta{Learners: map[int]*onlinehd.HVClassifier{}}
	for _, i := range idx {
		l := m.Learners[i]
		var class []hdc.Vector
		l.ReadClass(func(cv []hdc.Vector, _ uint64) {
			class = make([]hdc.Vector, len(cv))
			for c := range cv {
				nv := cv[(c+1)%len(cv)].Clone()
				for j := range nv {
					nv[j] += 0.1 * rng.NormFloat64()
				}
				class[c] = nv
			}
		})
		hv, err := onlinehd.NewHVClassifier(l.Dim, m.Cfg.Classes, m.Cfg.LR)
		if err != nil {
			t.Fatal(err)
		}
		if err := hv.SetClass(class); err != nil {
			t.Fatal(err)
		}
		d.Learners[i] = hv
	}
	return d
}

func newTenantFixture(t testing.TB) (*Server, *TenantRegistry, *boosthd.Model, [][]float64) {
	t.Helper()
	m, X, _ := fixture(t, 480, 4)
	s, err := NewServer(infer.NewEngine(m), Config{MaxBatch: 8, MaxWait: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	reg, err := NewTenantRegistry(s, TenantRegistryConfig{
		Store:     NewFileDeltaStore(t.TempDir()),
		CacheSize: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, reg, m, X
}

// Evict drops a tenant's resident entry (its persisted delta is
// untouched), reporting whether one was cached. The next resolve
// cold-loads from the store.
func (r *TenantRegistry) Evict(id string) bool {
	sh := r.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	el, ok := sh.entries[id]
	if !ok {
		return false
	}
	r.removeLocked(sh, el)
	r.journal(obs.Event{Type: obs.EvTenantEvict, Tenant: id, Detail: "operator evict"})
	return true
}

// TestTenantRegistryResolve covers the resolve state machine: empty ID
// and unknown tenants serve the shared base, installs produce distinct
// views, hits ride the LRU, and an evicted tenant cold-loads back to a
// bit-for-bit identical view.
func TestTenantRegistryResolve(t *testing.T) {
	s, reg, m, X := newTenantFixture(t)

	baseEng, err := reg.Resolve("")
	if err != nil {
		t.Fatal(err)
	}
	if baseEng != s.Engine() {
		t.Fatal("empty tenant must serve the server's engine")
	}
	// Unknown tenant: base passthrough, cached as such.
	eng, err := reg.Resolve("alice")
	if err != nil {
		t.Fatal(err)
	}
	if eng.Model() != m {
		t.Fatal("tenant without a delta must serve the base model")
	}
	if st := reg.Stats(); st.Misses != 1 || st.Residents != 0 || st.Cached != 1 {
		t.Fatalf("after passthrough resolve: %+v", st)
	}

	// Learner 0 carries the dominant alpha in this fixture; overriding it
	// guarantees the tenant view actually votes differently.
	d := testDelta(t, m, []int{0, 1}, 99)
	if err := reg.Install("alice", d); err != nil {
		t.Fatal(err)
	}
	eng, err = reg.Resolve("alice")
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.PredictBatch(X)
	if err != nil {
		t.Fatal(err)
	}
	basePred, err := s.Engine().PredictBatch(X)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range want {
		if want[i] != basePred[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("perturbed tenant view predicts identically to base on every row; fixture too weak to detect isolation")
	}

	// Hits ride the LRU without reloading.
	before := reg.Stats()
	if _, err := reg.Resolve("alice"); err != nil {
		t.Fatal(err)
	}
	after := reg.Stats()
	if after.Hits != before.Hits+1 || after.ColdLoads != before.ColdLoads {
		t.Fatalf("resident resolve: hits %d->%d cold %d->%d", before.Hits, after.Hits, before.ColdLoads, after.ColdLoads)
	}

	// Evict + cold-load: the store's record rebuilds the same view.
	if !reg.Evict("alice") {
		t.Fatal("evict reported no resident entry")
	}
	if reg.Evict("alice") {
		t.Fatal("double evict reported a resident entry")
	}
	eng, err = reg.Resolve("alice")
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.PredictBatch(X)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d after cold restore: %d, want %d", i, got[i], want[i])
		}
	}
	if st := reg.Stats(); st.ColdLoads == 0 || st.Residents != 1 {
		t.Fatalf("after cold restore: %+v", st)
	}

	// Invalid IDs never reach the store.
	for _, bad := range []string{"../etc", "a/b", ".hidden", strings.Repeat("x", 200), "sp ace"} {
		if _, err := reg.Resolve(bad); err == nil {
			t.Fatalf("tenant id %q accepted", bad)
		}
	}
}

// TestTenantRegistryBaseSwap pins the base-republish contract: a server
// swap rebuilds resident views lazily over the new engine, and a delta
// persisted under the previous base's fingerprint is rejected at cold
// load (counted as a mismatch) with base fallback, never served against
// a model it was not trained for.
func TestTenantRegistryBaseSwap(t *testing.T) {
	s, reg, m, X := newTenantFixture(t)
	d := testDelta(t, m, []int{0, 2}, 7)
	if err := reg.Install("bob", d); err != nil {
		t.Fatal(err)
	}

	// Same-model backend swap: fingerprint unchanged, views rebuild over
	// the binary engine.
	be, err := infer.NewBinaryEngine(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Swap(be); err != nil {
		t.Fatal(err)
	}
	eng, err := reg.Resolve("bob")
	if err != nil {
		t.Fatal(err)
	}
	if eng.Backend() != infer.PackedBinary {
		t.Fatal("resident view did not rebuild over the swapped binary base")
	}
	if st := reg.Stats(); st.Rebuilds == 0 {
		t.Fatalf("no rebuild counted after base swap: %+v", st)
	}
	ref, err := be.WithDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.PredictBatch(X)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.PredictBatch(X)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d after rebuild: %d, want %d", i, got[i], want[i])
		}
	}

	// Full retrain: class memory moves, fingerprint changes. The resident
	// entry re-bases (geometry still fits), but a cold load of the record
	// persisted under the OLD fingerprint must be rejected loudly.
	m2 := m.Clone()
	for i := 0; i < 40; i++ {
		if _, err := m2.Update(X[i%len(X)], i%m.Cfg.Classes); err != nil {
			t.Fatal(err)
		}
	}
	if m2.Fingerprint() == m.Fingerprint() {
		t.Fatal("fixture: update did not move the fingerprint")
	}
	// Install a delta for a second tenant under the OLD base, then swap
	// and evict so its next resolve is a cold load against the new base.
	d2 := testDelta(t, m, []int{1}, 13)
	if err := reg.Install("carol", d2); err != nil {
		t.Fatal(err)
	}
	reg.Evict("carol")
	if err := s.Swap(infer.NewEngine(m2)); err != nil {
		t.Fatal(err)
	}
	before := reg.Stats()
	eng, err = reg.Resolve("carol")
	if err != nil {
		t.Fatal(err)
	}
	if eng.Model() != m2 {
		t.Fatal("mismatched delta must fall back to the new base model")
	}
	after := reg.Stats()
	if after.Mismatches != before.Mismatches+1 {
		t.Fatalf("mismatches %d -> %d, want +1", before.Mismatches, after.Mismatches)
	}
	if after.LastError == "" {
		t.Fatal("base mismatch left no operator-visible error")
	}
}

// TestTenantRegistryRepersistAfterRetrain: a resident tenant's delta is
// re-persisted under the new base fingerprint when the base retrains, so
// personalization survives the republish across an eviction.
func TestTenantRegistryRepersistAfterRetrain(t *testing.T) {
	s, reg, m, X := newTenantFixture(t)
	d := testDelta(t, m, []int{2}, 21)
	if err := reg.Install("dave", d); err != nil {
		t.Fatal(err)
	}
	m2 := m.Clone()
	for i := 0; i < 40; i++ {
		if _, err := m2.Update(X[i%len(X)], i%m.Cfg.Classes); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Swap(infer.NewEngine(m2)); err != nil {
		t.Fatal(err)
	}
	// Resident resolve re-bases and re-persists under the new fingerprint.
	eng, err := reg.Resolve("dave")
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.PredictBatch(X)
	if err != nil {
		t.Fatal(err)
	}
	// Now evict: the cold load must find a record keyed to the NEW base.
	reg.Evict("dave")
	before := reg.Stats()
	eng, err = reg.Resolve("dave")
	if err != nil {
		t.Fatal(err)
	}
	after := reg.Stats()
	if after.Mismatches != before.Mismatches {
		t.Fatal("re-persisted delta was rejected at cold load")
	}
	if after.ColdLoads != before.ColdLoads+1 {
		t.Fatalf("cold loads %d -> %d, want +1", before.ColdLoads, after.ColdLoads)
	}
	got, err := eng.PredictBatch(X)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d after re-persist restore: %d, want %d", i, got[i], want[i])
		}
	}
}

// TestTenantRegistryLRU: the cache holds at most CacheSize entries and
// evictions lose no tenant state (write-through store).
func TestTenantRegistryLRU(t *testing.T) {
	m, _, _ := fixture(t, 480, 4)
	s, err := NewServer(infer.NewEngine(m), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	reg, err := NewTenantRegistry(s, TenantRegistryConfig{
		Store:     NewFileDeltaStore(t.TempDir()),
		CacheSize: 4,
		// One stripe so the CacheSize bound is exact: with S shards every
		// stripe keeps at least one slot, so effective capacity is
		// max(CacheSize, Shards).
		Shards: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		id := "t" + string(rune('a'+i))
		if err := reg.Install(id, testDelta(t, m, []int{i % 4}, int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	st := reg.Stats()
	if st.Cached != 4 {
		t.Fatalf("cached %d entries past capacity 4", st.Cached)
	}
	if st.Evictions != 6 {
		t.Fatalf("evictions %d, want 6", st.Evictions)
	}
	// Every evicted tenant restores from the store.
	for i := 0; i < 10; i++ {
		id := "t" + string(rune('a'+i))
		eng, err := reg.Resolve(id)
		if err != nil {
			t.Fatal(err)
		}
		if eng.Model() == m {
			t.Fatalf("tenant %s lost its delta across eviction", id)
		}
	}
}

// TestTenantRegistryScrub: a resident delta whose memory moves without
// an install (bit-rot) fails its scrub signature, is evicted, and the
// next resolve restores the authoritative record from the store.
func TestTenantRegistryScrub(t *testing.T) {
	_, reg, m, X := newTenantFixture(t)
	d := testDelta(t, m, []int{1}, 5)
	if err := reg.Install("eve", d); err != nil {
		t.Fatal(err)
	}
	eng, err := reg.Resolve("eve")
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.PredictBatch(X)
	if err != nil {
		t.Fatal(err)
	}
	if sc, bad := reg.ScrubTenants(); sc != 1 || bad != 0 {
		t.Fatalf("clean scrub: scrubbed %d corrupted %d", sc, bad)
	}
	// Corrupt the resident delta's memory in place — the registry holds
	// the same *Delta we do.
	var class []hdc.Vector
	d.Learners[1].ReadClass(func(cv []hdc.Vector, _ uint64) {
		class = make([]hdc.Vector, len(cv))
		for c, v := range cv {
			class[c] = v.Clone()
		}
	})
	class[0][0] += 1000
	if err := d.Learners[1].SetClass(class); err != nil {
		t.Fatal(err)
	}
	if _, bad := reg.ScrubTenants(); bad != 1 {
		t.Fatalf("corrupted delta not detected (corrupted=%d)", bad)
	}
	if st := reg.Stats(); st.Corruptions != 1 || st.LastError == "" {
		t.Fatalf("scrub stats after corruption: %+v", st)
	}
	// Next resolve cold-loads the clean persisted record.
	eng, err = reg.Resolve("eve")
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.PredictBatch(X)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d after scrub restore: %d, want %d", i, got[i], want[i])
		}
	}
}

// TestTenantRegistrySoak hammers the registry from 64 clients with
// concurrent installs, evictions, base swaps, and scrubs — run with
// -race. Every resolve must return a usable engine whose predictions are
// in range; nothing may error.
func TestTenantRegistrySoak(t *testing.T) {
	m, X, _ := fixture(t, 480, 4)
	fe := infer.NewEngine(m)
	be, err := infer.NewBinaryEngine(m)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(fe, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	reg, err := NewTenantRegistry(s, TenantRegistryConfig{
		Store:     NewFileDeltaStore(t.TempDir()),
		CacheSize: 8, // far below the tenant count: constant eviction + cold-load churn
	})
	if err != nil {
		t.Fatal(err)
	}
	const tenants = 32
	ids := make([]string, tenants)
	for i := range ids {
		ids[i] = "soak" + string(rune('a'+i%26)) + string(rune('0'+i/26))
		if err := reg.Install(ids[i], testDelta(t, m, []int{i % 4}, int64(i))); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var failed atomic.Uint64
	var wg sync.WaitGroup
	for c := 0; c < 64; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)*7919 + 3))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := ids[rng.Intn(tenants)]
				switch i % 16 {
				case 7:
					reg.Evict(id)
				case 11:
					if err := reg.Install(id, testDelta(t, m, []int{rng.Intn(4)}, int64(i))); err != nil {
						failed.Add(1)
						return
					}
				default:
					eng, err := reg.Resolve(id)
					if err != nil {
						failed.Add(1)
						return
					}
					j := rng.Intn(len(X))
					label, err := eng.PredictBatch(X[j : j+1])
					if err != nil || label[0] < 0 || label[0] >= m.Cfg.Classes {
						failed.Add(1)
						return
					}
				}
			}
		}(c)
	}
	// Swap the base back and forth and scrub while the clients hammer.
	deadline := time.After(300 * time.Millisecond)
	swaps := 0
loop:
	for {
		select {
		case <-deadline:
			break loop
		default:
		}
		eng := fe
		if swaps%2 == 0 {
			eng = be
		}
		if err := s.Swap(eng); err != nil {
			t.Fatal(err)
		}
		swaps++
		reg.ScrubTenants()
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if failed.Load() != 0 {
		t.Fatalf("%d clients failed during soak (last error: %s)", failed.Load(), reg.Stats().LastError)
	}
	st := reg.Stats()
	if st.Corruptions != 0 {
		t.Fatalf("scrub flagged %d corruptions on healthy deltas", st.Corruptions)
	}
	if st.Hits == 0 || st.ColdLoads == 0 || st.Rebuilds == 0 {
		t.Fatalf("soak did not exercise all paths: %+v", st)
	}
}

// TestTenantPredictCoalesces pins the tenant-aware micro-batcher:
// concurrent predicts pinned to two tenant views plus base traffic must
// still coalesce (fewer engine batch calls than rows served), rows
// sharing a flush with a peer are counted, and every row lands on the
// engine view it was pinned to — predictions bit-identical to direct
// engine calls.
func TestTenantPredictCoalesces(t *testing.T) {
	m, X, _ := fixture(t, 320, 4)
	s, err := NewServer(infer.NewEngine(m), Config{MaxBatch: 32, MaxWait: 20 * time.Millisecond, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	reg, err := NewTenantRegistry(s, TenantRegistryConfig{
		Store:     NewFileDeltaStore(t.TempDir()),
		CacheSize: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range []string{"ward-a", "ward-b"} {
		if err := reg.Install(id, testDelta(t, m, []int{i, i + 1}, int64(41+i))); err != nil {
			t.Fatal(err)
		}
	}
	engines := make([]*infer.Engine, 3)
	engines[0] = nil // base traffic rides the serving engine
	for i, id := range []string{"ward-a", "ward-b"} {
		if engines[i+1], err = reg.Resolve(id); err != nil {
			t.Fatal(err)
		}
	}
	// Direct references per view: nil means the serving engine.
	want := make([]int, 24)
	for i := range want {
		eng := engines[i%3]
		if eng == nil {
			eng = s.Engine()
		}
		j := i % len(X)
		p, err := eng.PredictBatch(X[j : j+1])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = p[0]
	}

	got := make([]int, len(want))
	var wg sync.WaitGroup
	for i := range want {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := s.PredictOnSpan(engines[i%3], X[i%len(X)], nil)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = p
		}(i)
	}
	wg.Wait()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d (view %d): batched %d != direct %d — tenant row landed on the wrong engine", i, i%3, got[i], want[i])
		}
	}

	st := s.Stats()
	if st.Served != uint64(len(want)) {
		t.Fatalf("served %d rows, want %d", st.Served, len(want))
	}
	if st.Batches >= st.Served {
		t.Fatalf("%d engine batch calls for %d rows: tenant pinning defeated coalescing", st.Batches, st.Served)
	}
	if st.CoalescedRows == 0 {
		t.Fatal("no row shared its engine batch call with a peer")
	}
	if st.TenantRows == 0 {
		t.Fatal("no row was counted as tenant-pinned")
	}
	if st.Flushes == 0 || st.Flushes > st.Batches {
		t.Fatalf("flushes %d vs batches %d: a flush issues at least one batch call", st.Flushes, st.Batches)
	}
}

// fakeTenantTrainer records tenant-scoped calls for HTTP routing tests.
type fakeTenantTrainer struct {
	mu       sync.Mutex
	observed map[string]int
	retrains map[string]int
}

func (f *fakeTenantTrainer) ObserveTenant(tenant string, x []float64, label int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.observed[tenant]++
	return nil
}

func (f *fakeTenantTrainer) ObserveTenantBatch(tenant string, X [][]float64, y []int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.observed[tenant] += len(X)
	return nil
}

func (f *fakeTenantTrainer) RetrainTenant(tenant string) (RetrainReport, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.retrains[tenant]++
	return RetrainReport{Swapped: true, Mode: "tenant-delta"}, nil
}

// TestTenantPredictBatchCounted: a tenant /predict_batch runs through the
// server's batch entry point like a base batch, so its rows count toward
// Served and its engine call toward Batches, and a closed server refuses
// it.
func TestTenantPredictBatchCounted(t *testing.T) {
	s, reg, m, X := newTenantFixture(t)
	if err := reg.Install("ward-7", testDelta(t, m, []int{1, 2}, 31)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewHandler(s, HandlerConfig{Tenants: reg}))
	defer ts.Close()
	raw, err := json.Marshal(map[string]any{"rows": X[:4]})
	if err != nil {
		t.Fatal(err)
	}
	before := s.Stats()
	if resp := postRaw(t, ts.URL+"/t/ward-7/predict_batch", raw); resp.StatusCode != http.StatusOK {
		t.Fatalf("/t/ward-7/predict_batch: %d", resp.StatusCode)
	}
	after := s.Stats()
	if served, batches := after.Served-before.Served, after.Batches-before.Batches; served != 4 || batches != 1 {
		t.Fatalf("tenant batch counted %d rows in %d batches, want 4 in 1", served, batches)
	}
	s.Close()
	if resp := postRaw(t, ts.URL+"/t/ward-7/predict_batch", raw); resp.StatusCode == http.StatusOK {
		t.Fatal("closed server answered a tenant predict_batch")
	}
}

// TestTenantHTTP drives the tenant routes end to end: path and header
// forms, conflicts, validation, stats, and the per-tenant observe and
// retrain dispatch.
func TestTenantHTTP(t *testing.T) {
	s, reg, m, X := newTenantFixture(t)
	d := testDelta(t, m, []int{1, 2}, 31)
	if err := reg.Install("ward-7", d); err != nil {
		t.Fatal(err)
	}
	ft := &fakeTenantTrainer{observed: map[string]int{}, retrains: map[string]int{}}
	ts := httptest.NewServer(NewHandler(s, HandlerConfig{Tenants: reg, TenantTrainer: ft}))
	defer ts.Close()

	do := func(method, path string, hdr map[string]string, body any) (*http.Response, []byte) {
		t.Helper()
		var rd *bytes.Reader
		if body != nil {
			raw, _ := json.Marshal(body)
			rd = bytes.NewReader(raw)
		} else {
			rd = bytes.NewReader(nil)
		}
		req, err := http.NewRequest(method, ts.URL+path, rd)
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp, buf.Bytes()
	}

	tenantEng, err := reg.Resolve("ward-7")
	if err != nil {
		t.Fatal(err)
	}
	wants, err := tenantEng.PredictBatch(X[:1])
	if err != nil {
		t.Fatal(err)
	}
	want := wants[0]

	// Path form and header form must agree.
	var one struct {
		Label int `json:"label"`
	}
	resp, body := do("POST", "/t/ward-7/predict", nil, map[string]any{"features": X[0]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/t/ward-7/predict: %d %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &one); err != nil {
		t.Fatal(err)
	}
	if one.Label != want {
		t.Fatalf("path-form label %d, want %d", one.Label, want)
	}
	resp, body = do("POST", "/predict", map[string]string{"X-Tenant": "ward-7"}, map[string]any{"features": X[0]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("header-form predict: %d %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &one); err != nil {
		t.Fatal(err)
	}
	if one.Label != want {
		t.Fatalf("header-form label %d, want %d", one.Label, want)
	}

	// Batch through the tenant engine.
	resp, body = do("POST", "/t/ward-7/predict_batch", nil, map[string]any{"rows": X[:4]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/t/ward-7/predict_batch: %d %s", resp.StatusCode, body)
	}
	var batch struct {
		Labels []int `json:"labels"`
	}
	if err := json.Unmarshal(body, &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Labels) != 4 || batch.Labels[0] != want {
		t.Fatalf("tenant batch labels %v", batch.Labels)
	}

	// Conflicting header vs path tenant is a client bug.
	resp, _ = do("POST", "/t/ward-7/predict", map[string]string{"X-Tenant": "other"}, map[string]any{"features": X[0]})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("conflicting tenant: %d, want 400", resp.StatusCode)
	}
	// Matching header and path is fine.
	resp, _ = do("POST", "/t/ward-7/predict", map[string]string{"X-Tenant": "ward-7"}, map[string]any{"features": X[0]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("matching header+path tenant: %d", resp.StatusCode)
	}
	// Invalid tenant IDs answer 400 from the route, not the store.
	resp, _ = do("POST", "/t/.dot/predict", nil, map[string]any{"features": X[0]})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid tenant id: %d, want 400", resp.StatusCode)
	}
	// Unknown op 404s.
	resp, _ = do("POST", "/t/ward-7/frobnicate", nil, map[string]any{})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown tenant op: %d, want 404", resp.StatusCode)
	}

	// Tenant observe and retrain dispatch to the tenant trainer with the
	// right ID, via both routing forms.
	resp, body = do("POST", "/t/ward-7/observe", nil, map[string]any{"features": X[0], "label": 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/t/ward-7/observe: %d %s", resp.StatusCode, body)
	}
	var obs struct {
		Tenant   string `json:"tenant"`
		Accepted int    `json:"accepted"`
	}
	if err := json.Unmarshal(body, &obs); err != nil {
		t.Fatal(err)
	}
	if obs.Tenant != "ward-7" || obs.Accepted != 1 {
		t.Fatalf("observe response %+v", obs)
	}
	resp, _ = do("POST", "/observe", map[string]string{"X-Tenant": "ward-7"},
		map[string]any{"rows": X[:3], "labels": []int{0, 1, 2}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("header-form tenant observe: %d", resp.StatusCode)
	}
	resp, body = do("POST", "/t/ward-7/retrain", nil, map[string]any{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/t/ward-7/retrain: %d %s", resp.StatusCode, body)
	}
	ft.mu.Lock()
	if ft.observed["ward-7"] != 4 || ft.retrains["ward-7"] != 1 {
		t.Fatalf("trainer saw observed=%d retrains=%d", ft.observed["ward-7"], ft.retrains["ward-7"])
	}
	ft.mu.Unlock()

	// /tenants stats endpoint.
	resp, body = do("GET", "/tenants", nil, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/tenants: %d %s", resp.StatusCode, body)
	}
	var st TenantStats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Residents != 1 || st.BaseHash == "" {
		t.Fatalf("/tenants stats %+v", st)
	}

	// Base (non-tenant) observe without a base trainer answers 404; so do
	// tenant observe/retrain when no tenant trainer is configured.
	resp, _ = do("POST", "/observe", nil, map[string]any{"features": X[0], "label": 1})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("base observe without trainer: %d, want 404", resp.StatusCode)
	}
	bare := httptest.NewServer(NewHandler(s, HandlerConfig{Tenants: reg}))
	defer bare.Close()
	raw, _ := json.Marshal(map[string]any{"features": X[0], "label": 1})
	resp2, err := http.Post(bare.URL+"/t/ward-7/observe", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("tenant observe without tenant trainer: %d, want 404", resp2.StatusCode)
	}

	// Without a registry the tenant surface does not exist.
	off := httptest.NewServer(NewHandler(s, HandlerConfig{}))
	defer off.Close()
	resp3, err := http.Post(off.URL+"/t/ward-7/predict", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusNotFound {
		t.Fatalf("tenant route without registry: %d, want 404", resp3.StatusCode)
	}
}
