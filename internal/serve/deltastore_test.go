package serve

import (
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"boosthd/internal/boosthd"
	"boosthd/internal/infer"
	"boosthd/internal/onlinehd"
)

// refit returns a copy of d with only the given learner's class memory
// moved (a fresh perturbation under seed) — the steady-state shape of a
// per-tenant online refit, where one learner absorbs new samples while
// the rest of the override set stands still.
func refit(t testing.TB, m *boosthd.Model, d *boosthd.Delta, learner int, seed int64) *boosthd.Delta {
	t.Helper()
	nd := &boosthd.Delta{Learners: map[int]*onlinehd.HVClassifier{}, Alphas: d.Alphas}
	for i, l := range d.Learners {
		nd.Learners[i] = l
	}
	nd.Learners[learner] = testDelta(t, m, []int{learner}, seed).Learners[learner]
	return nd
}

// sameDelta compares two deltas by the store's own digest (per-learner
// FNV over class memory + alpha digest) — bit-for-bit at float64
// granularity.
func sameDelta(a, b *boosthd.Delta) bool {
	as, aa := digestDelta(a)
	bs, ba := digestDelta(b)
	if aa != ba || len(as) != len(bs) {
		return false
	}
	for i, s := range as {
		if bs[i] != s {
			return false
		}
	}
	return true
}

// TestDeltaStoreJournalAppend pins the incremental-refit contract: after
// the first full record, a save that moved one of n overridden learners
// appends a one-learner patch (write size proportional to learners
// moved, not override-set size), a bit-identical save writes nothing,
// and a fresh store replays record+journal back to the exact delta —
// then keeps appending rather than rewriting.
func TestDeltaStoreJournalAppend(t *testing.T) {
	m, _, _ := fixture(t, 480, 4)
	fp := m.Fingerprint()
	dir := t.TempDir()
	store := NewFileDeltaStore(dir)
	store.threshold = 100 // keep inline folding out of the way

	d := testDelta(t, m, []int{0, 1, 2}, 1)
	if err := store.Save("t1", d, fp); err != nil {
		t.Fatal(err)
	}
	if n := store.JournalEntries("t1"); n != 0 {
		t.Fatalf("journal holds %d entries after the initial full write", n)
	}
	full, err := os.Stat(store.path("t1"))
	if err != nil {
		t.Fatal(err)
	}

	// Refit learner 1 only: one patch lands, and it is a fraction of the
	// full record because it carries one learner, not three.
	d = refit(t, m, d, 1, 2)
	if err := store.Save("t1", d, fp); err != nil {
		t.Fatal(err)
	}
	if n := store.JournalEntries("t1"); n != 1 {
		t.Fatalf("journal holds %d entries after one refit, want 1", n)
	}
	j, err := os.Stat(store.journalPath("t1"))
	if err != nil {
		t.Fatal(err)
	}
	if j.Size() >= full.Size() {
		t.Fatalf("one-learner patch (%d bytes) not smaller than the %d-byte full record: refit I/O still scales with the override set",
			j.Size(), full.Size())
	}

	// Bit-identical save: nothing moves, nothing is written.
	if err := store.Save("t1", d, fp); err != nil {
		t.Fatal(err)
	}
	if n := store.JournalEntries("t1"); n != 1 {
		t.Fatalf("bit-identical save appended a patch (journal %d entries)", n)
	}

	d = refit(t, m, d, 2, 3)
	if err := store.Save("t1", d, fp); err != nil {
		t.Fatal(err)
	}

	// Restart: a fresh store must replay record+journal to the same bits,
	// and its next refit must append, not rewrite.
	store2 := NewFileDeltaStore(dir)
	got, err := store2.Load("t1", m, fp)
	if err != nil {
		t.Fatal(err)
	}
	if !sameDelta(d, got) {
		t.Fatal("replayed delta differs from the last saved state")
	}
	d = refit(t, m, d, 0, 4)
	if err := store2.Save("t1", d, fp); err != nil {
		t.Fatal(err)
	}
	if n := store2.JournalEntries("t1"); n != 3 {
		t.Fatalf("post-restart refit: journal holds %d entries, want 3 (append, not rewrite)", n)
	}
}

// TestDeltaStoreCompaction covers the three ways a journal folds back
// into one full record: an explicit Compact, the inline threshold on
// Save, and Compact's stale-snapshot decline when a newer save landed.
func TestDeltaStoreCompaction(t *testing.T) {
	m, _, _ := fixture(t, 480, 4)
	fp := m.Fingerprint()
	store := NewFileDeltaStore(t.TempDir())
	store.threshold = 100

	d := testDelta(t, m, []int{0, 1, 2}, 1)
	if err := store.Save("t1", d, fp); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		d = refit(t, m, d, i, int64(10+i))
		if err := store.Save("t1", d, fp); err != nil {
			t.Fatal(err)
		}
	}
	if n := store.JournalEntries("t1"); n != 3 {
		t.Fatalf("journal holds %d entries, want 3", n)
	}

	// A stale snapshot — the state before the last refit — must decline.
	stale := refit(t, m, d, 2, 99)
	if did, err := store.Compact("t1", stale, fp); err != nil || did {
		t.Fatalf("stale compact: did=%v err=%v, want decline", did, err)
	}
	if n := store.JournalEntries("t1"); n != 3 {
		t.Fatalf("declined compact changed the journal (%d entries)", n)
	}

	// The current snapshot folds: journal gone, record round-trips.
	did, err := store.Compact("t1", d, fp)
	if err != nil || !did {
		t.Fatalf("compact: did=%v err=%v", did, err)
	}
	if n := store.JournalEntries("t1"); n != 0 {
		t.Fatalf("journal holds %d entries after compaction", n)
	}
	if _, err := os.Stat(store.journalPath("t1")); !os.IsNotExist(err) {
		t.Fatalf("journal file survived compaction: %v", err)
	}
	got, err := NewFileDeltaStore(store.dir).Load("t1", m, fp)
	if err != nil {
		t.Fatal(err)
	}
	if !sameDelta(d, got) {
		t.Fatal("compacted record differs from the pre-compaction state")
	}
	// Idempotent: an empty journal has nothing to fold.
	if did, err := store.Compact("t1", d, fp); err != nil || did {
		t.Fatalf("compact on empty journal: did=%v err=%v", did, err)
	}

	// Inline threshold: the save that would push the journal to the
	// threshold rewrites instead.
	store.threshold = 3
	for i := 0; i < 2; i++ {
		d = refit(t, m, d, i, int64(20+i))
		if err := store.Save("t1", d, fp); err != nil {
			t.Fatal(err)
		}
	}
	if n := store.JournalEntries("t1"); n != 2 {
		t.Fatalf("journal holds %d entries below threshold, want 2", n)
	}
	d = refit(t, m, d, 2, 23)
	if err := store.Save("t1", d, fp); err != nil {
		t.Fatal(err)
	}
	if n := store.JournalEntries("t1"); n != 0 {
		t.Fatalf("threshold save left %d journal entries, want inline fold to 0", n)
	}
}

// TestTenantScrubCompacts wires the registry into the story: refits
// through Install grow the journal, the scrub pass folds it via the
// DeltaCompactor face, and the tenant's view survives an evict +
// cold-load bit-for-bit.
func TestTenantScrubCompacts(t *testing.T) {
	m, X, _ := fixture(t, 480, 4)
	s, err := NewServer(infer.NewEngine(m), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	store := NewFileDeltaStore(t.TempDir())
	store.threshold = 100
	reg, err := NewTenantRegistry(s, TenantRegistryConfig{Store: store, CacheSize: 8})
	if err != nil {
		t.Fatal(err)
	}

	d := testDelta(t, m, []int{0, 1}, 5)
	if err := reg.Install("ward-3", d); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		d = refit(t, m, d, i%2, int64(30+i))
		if err := reg.Install("ward-3", d); err != nil {
			t.Fatal(err)
		}
	}
	if n := store.JournalEntries("ward-3"); n == 0 {
		t.Fatal("refits through Install appended no journal patches")
	}

	if _, bad := reg.ScrubTenants(); bad != 0 {
		t.Fatalf("scrub flagged %d healthy tenants", bad)
	}
	st := reg.Stats()
	if st.Compactions == 0 {
		t.Fatalf("scrub pass compacted nothing: %+v", st)
	}
	if n := store.JournalEntries("ward-3"); n != 0 {
		t.Fatalf("journal holds %d entries after scrub compaction", n)
	}

	ref, err := s.Engine().WithDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.PredictBatch(X)
	if err != nil {
		t.Fatal(err)
	}
	reg.Evict("ward-3")
	eng, err := reg.Resolve("ward-3")
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.PredictBatch(X)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d after compaction cold-load: %d, want %d", i, got[i], want[i])
		}
	}
}

// TestTenantShardSwapVisibility is the sharded stale-base check, meant
// for -race: while 32 clients churn resolves, installs, and evictions
// across every shard, the serving engine hot-swaps between backends —
// and a resolve issued after Swap returns must always see a view over
// the new backend, never a stale shard entry.
func TestTenantShardSwapVisibility(t *testing.T) {
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
		CacheSize: 64,
		Shards:    16,
	})
	if err != nil {
		t.Fatal(err)
	}
	const tenants = 32
	ids := make([]string, tenants)
	for i := range ids {
		ids[i] = "vis" + string(rune('a'+i%26)) + string(rune('0'+i/26))
		if err := reg.Install(ids[i], testDelta(t, m, []int{i % 4}, int64(i))); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var failed atomic.Uint32
	for c := 0; c < 32; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := ids[(c*31+i)%tenants]
				switch i % 8 {
				case 3:
					reg.Evict(id)
				case 5:
					if err := reg.Install(id, testDelta(t, m, []int{i % 4}, int64(i))); err != nil {
						failed.Add(1)
						return
					}
				default:
					eng, err := reg.Resolve(id)
					if err != nil {
						failed.Add(1)
						return
					}
					j := i % len(X)
					if _, err := eng.PredictBatch(X[j : j+1]); err != nil {
						failed.Add(1)
						return
					}
				}
			}
		}(c)
	}

	deadline := time.Now().Add(300 * time.Millisecond)
	for swap := 0; time.Now().Before(deadline); swap++ {
		target := fe
		if swap%2 == 0 {
			target = be
		}
		if err := s.Swap(target); err != nil {
			t.Fatal(err)
		}
		// The swap has returned: every resolve from here until the next
		// swap must reflect the new backend, across shards, no matter
		// what the churn goroutines are doing to those entries.
		for probe := 0; probe < 8; probe++ {
			eng, err := reg.Resolve(ids[(swap*8+probe)%tenants])
			if err != nil {
				t.Fatal(err)
			}
			if eng.Backend() != target.Backend() {
				t.Fatalf("swap %d: resolve returned backend %v, want %v — stale base view", swap, eng.Backend(), target.Backend())
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if failed.Load() != 0 {
		t.Fatalf("%d churn clients failed (last error: %s)", failed.Load(), reg.Stats().LastError)
	}
	if st := reg.Stats(); st.Rebuilds == 0 {
		t.Fatalf("soak never rebuilt a resident view: %+v", st)
	}
}

// JournalEntries reports how many journal patches tenant's record
// currently carries (zero right after a full write or compaction).
func (fs *FileDeltaStore) JournalEntries(tenant string) int {
	rec := fs.record(tenant)
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return rec.entries
}
