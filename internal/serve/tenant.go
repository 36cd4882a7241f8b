package serve

import (
	"container/list"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"boosthd/internal/boosthd"
	"boosthd/internal/hdc"
	"boosthd/internal/infer"
	"boosthd/internal/obs"
)

// ValidTenantID enforces the tenant-ID character set shared by the HTTP
// routes and the file store: 1-128 chars of [A-Za-z0-9._-], not starting
// with a dot. The set is deliberately filename- and URL-safe, so an ID
// can never traverse the delta directory or smuggle path separators.
func ValidTenantID(id string) error {
	if id == "" || len(id) > 128 {
		return fmt.Errorf("%w: tenant id must be 1-128 characters", ErrBadInput)
	}
	if id[0] == '.' {
		return fmt.Errorf("%w: tenant id %q starts with a dot", ErrBadInput, id)
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return fmt.Errorf("%w: tenant id %q contains %q (allowed: A-Za-z0-9._-)", ErrBadInput, id, c)
		}
	}
	return nil
}

// tenantEntry is one cached tenant in a shard's LRU.
type tenantEntry struct {
	id    string
	delta *boosthd.Delta // nil: tenant serves the shared base
	eng   *infer.Engine  // tenant view (or the base engine when delta is nil)
	sig   uint64         // FNV fold over the delta memory, for scrubbing
	gen   uint64         // base generation the view was built over
	fp    uint64         // base fingerprint the delta is persisted under
	bytes int            // resident delta bytes (0 for base passthrough)
}

// baseState is one adopted base engine: the engine tenant views compose
// over, its model fingerprint, the adoption generation resident entries
// compare against, and the server model version the adoption observed.
// It is immutable once published — base swaps publish a fresh one — so
// the resolve hot path reads it with a single atomic load.
type baseState struct {
	eng    *infer.Engine
	fp     uint64 // fingerprint of eng's model (cached; expensive)
	gen    uint64 // bumps on every adopted base engine
	srvGen uint64 // srv.ModelVersion() at adoption
}

// tenantShard is one lock stripe of the registry: an independent
// map + LRU with its own slice of the cache capacity. Tenants hash to a
// shard by FNV over the ID, so resolve/install/evict on different
// tenants contend only when they collide on a stripe.
type tenantShard struct {
	mu      sync.Mutex
	entries map[string]*list.Element
	lru     *list.List // front = most recently resolved
	cap     int
}

// TenantRegistryConfig tunes the registry.
type TenantRegistryConfig struct {
	// Store is the per-tenant checkpoint store. Required.
	Store DeltaStore
	// CacheSize bounds resident tenant entries (LRU past it). Zero
	// selects 1024; negative is rejected. The bound is split across
	// shards, each keeping at least one slot, so the effective capacity
	// is max(CacheSize, Shards).
	CacheSize int
	// Shards is the number of lock stripes the resident cache is split
	// into, rounded up to a power of two. Zero selects 16; negative is
	// rejected. One shard reproduces the old single-mutex registry.
	Shards int
}

// DefaultTenantShards is the shard count selected by a zero
// TenantRegistryConfig.Shards.
const DefaultTenantShards = 16

// maxTenantShards bounds the shard count (a config of millions of
// stripes would only waste memory on empty maps).
const maxTenantShards = 1 << 14

// TenantRegistry multiplexes one serving process across tenants: a
// tenant ID resolves to an engine view built from the shared base model
// (whatever the Server is currently serving) plus the tenant's
// copy-on-write learner delta. Resident views live in lock-striped
// LRU shards — FNV over the tenant ID picks the stripe, so resolves,
// installs, and evictions on different tenants never serialize on one
// mutex; misses cold-load from the DeltaStore; tenants without a delta
// serve the base engine directly. The registry follows the server's
// atomic engine swap: a base retrain republishes to every tenant —
// resident views rebuild lazily over the new base on their next resolve
// (and re-persist under the new base fingerprint when the memory
// actually moved), while persisted deltas whose fingerprint no longer
// matches are rejected loudly at cold-load and the tenant falls back to
// the base model until re-personalized.
type TenantRegistry struct {
	srv   *Server
	store DeltaStore
	cap   int

	shardMask uint64
	shards    []tenantShard

	// base is the adopted base state, published atomically so the
	// resolve hot path never takes a lock to read it; adoptMu
	// serializes the (rare) adoption slow path after a swap.
	base    atomic.Pointer[baseState]
	adoptMu sync.Mutex

	// Residency gauges, maintained under shard locks but read without
	// any: Stats is O(1) and can never block a resolve.
	residents atomic.Int64
	cached    atomic.Int64
	bytes     atomic.Int64

	hits, misses, coldLoads, evictions atomic.Uint64
	mismatches, rebuilds, corruptions  atomic.Uint64
	scrubs, compactions                atomic.Uint64

	lastErrMu sync.Mutex
	lastErr   string

	loopMu sync.Mutex
	stop   chan struct{}
	done   chan struct{}
}

// TenantStats is a point-in-time snapshot of the registry. It is built
// entirely from atomics and the published base state — no shard lock is
// held, so /tenants polling never blocks the resolve path.
type TenantStats struct {
	Residents     int    `json:"residents"`      // cached tenants holding a delta
	Cached        int    `json:"cached"`         // all cached tenants (incl. base passthrough)
	Capacity      int    `json:"capacity"`       // LRU bound across shards
	Shards        int    `json:"shards"`         // lock stripes the cache is split into
	ResidentBytes int64  `json:"resident_bytes"` // delta float memory resident across tenants
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	ColdLoads     uint64 `json:"cold_loads"`  // deltas loaded from the store
	Evictions     uint64 `json:"evictions"`   // LRU evictions
	Mismatches    uint64 `json:"mismatches"`  // deltas rejected (base fingerprint mismatch)
	Rebuilds      uint64 `json:"rebuilds"`    // resident views rebuilt after a base swap
	Corruptions   uint64 `json:"corruptions"` // resident deltas failing their scrub signature
	Scrubs        uint64 `json:"scrubs"`      // tenant scrub passes completed
	Compactions   uint64 `json:"compactions"` // delta journals folded into full records
	BaseVersion   uint64 `json:"base_version"`
	BaseHash      string `json:"base_hash"`
	LastError     string `json:"last_error,omitempty"`
}

// NewTenantRegistry builds a registry multiplexing srv's serving engine.
func NewTenantRegistry(srv *Server, cfg TenantRegistryConfig) (*TenantRegistry, error) {
	if srv == nil {
		return nil, fmt.Errorf("serve: tenant registry: nil server")
	}
	if cfg.Store == nil {
		return nil, fmt.Errorf("serve: tenant registry: nil delta store")
	}
	if cfg.CacheSize < 0 {
		return nil, fmt.Errorf("serve: tenant registry: negative cache size %d", cfg.CacheSize)
	}
	if cfg.CacheSize == 0 {
		cfg.CacheSize = 1024
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("serve: tenant registry: negative shard count %d", cfg.Shards)
	}
	if cfg.Shards == 0 {
		cfg.Shards = DefaultTenantShards
	}
	if cfg.Shards > maxTenantShards {
		return nil, fmt.Errorf("serve: tenant registry: %d shards exceeds the %d bound", cfg.Shards, maxTenantShards)
	}
	nshards := 1
	for nshards < cfg.Shards {
		nshards <<= 1
	}
	r := &TenantRegistry{
		srv:       srv,
		store:     cfg.Store,
		cap:       cfg.CacheSize,
		shardMask: uint64(nshards - 1),
		shards:    make([]tenantShard, nshards),
	}
	// Split the capacity across stripes, spreading the remainder over
	// the first ones and flooring each at one slot so no shard thrashes
	// between insert and immediate evict.
	share, extra := cfg.CacheSize/nshards, cfg.CacheSize%nshards
	for i := range r.shards {
		c := share
		if i < extra {
			c++
		}
		if c < 1 {
			c = 1
		}
		r.shards[i] = tenantShard{entries: make(map[string]*list.Element), lru: list.New(), cap: c}
	}
	r.adoptBase()
	return r, nil
}

// shard maps a tenant ID to its lock stripe: inline FNV-1a over the ID
// bytes, masked to the power-of-two shard count.
//
//hd:hotpath
func (r *TenantRegistry) shard(id string) *tenantShard {
	const (
		offset uint64 = 14695981039346656037
		prime  uint64 = 1099511628211
	)
	h := offset
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= prime
	}
	return &r.shards[h&r.shardMask]
}

// adoptBase re-points the registry at the server's current engine when a
// swap landed since the last adoption: the base generation bumps
// (resident views rebuild lazily on their next resolve) and the base
// fingerprint is recomputed — it only actually changes when the class
// memory moved (full retrain), not on alpha-only masks or reweights, so
// persisted deltas survive quarantines. Publication is a single atomic
// store; concurrent resolvers racing the adoption either see the old
// state (and re-adopt) or the new one.
func (r *TenantRegistry) adoptBase() *baseState {
	r.adoptMu.Lock()
	defer r.adoptMu.Unlock()
	bs := r.base.Load()
	gen := r.srv.ModelVersion()
	if bs != nil && bs.srvGen == gen {
		return bs
	}
	eng := r.srv.Engine()
	nb := &baseState{eng: eng, srvGen: gen, fp: eng.Model().Fingerprint(), gen: 1}
	if bs != nil {
		nb.gen = bs.gen + 1
	}
	r.base.Store(nb)
	return nb
}

// currentBase returns the adopted base state, adopting the server's
// engine first if a swap landed.
func (r *TenantRegistry) currentBase() *baseState {
	bs := r.base.Load()
	if bs != nil && bs.srvGen == r.srv.ModelVersion() {
		return bs
	}
	return r.adoptBase()
}

// Base returns the shared base engine tenant views are built over,
// adopting the server's current engine first.
func (r *TenantRegistry) Base() *infer.Engine {
	return r.currentBase().eng
}

// Resolve maps a tenant ID to its serving engine: the empty ID and
// tenants without a delta serve the shared base, resident tenants hit
// their shard's LRU, and everything else cold-loads from the store.
// This is the per-request tenant hot path — the cache hit reads the
// published base state with one atomic load, then does one map lookup
// and one LRU splice under its shard's lock, and allocates nothing.
//
//hd:hotpath
func (r *TenantRegistry) Resolve(id string) (*infer.Engine, error) {
	if id == "" {
		return r.srv.Engine(), nil
	}
	bs := r.base.Load()
	if bs == nil || bs.srvGen != r.srv.ModelVersion() {
		bs = r.adoptBase()
	}
	sh := r.shard(id)
	sh.mu.Lock()
	if el, ok := sh.entries[id]; ok {
		e := el.Value.(*tenantEntry)
		if e.gen == bs.gen {
			sh.lru.MoveToFront(el)
			eng := e.eng
			sh.mu.Unlock()
			r.hits.Add(1)
			return eng, nil
		}
		sh.lru.MoveToFront(el)
		eng, err := r.rebuildLocked(sh, e)
		sh.mu.Unlock()
		return eng, err
	}
	sh.mu.Unlock()
	r.misses.Add(1)
	return r.resolveCold(id)
}

// journal appends a tenant event to the server's observability journal
// when one is wired; without one the call costs a single atomic load.
// The journal mutex is a leaf, so appending under a shard lock is safe.
func (r *TenantRegistry) journal(e obs.Event) {
	if o := r.srv.Obs(); o != nil {
		o.Journal.Append(e)
	}
}

// rebuildLocked re-bases a resident entry after a base swap: the delta
// view is rebuilt over the freshly adopted engine, and when the base
// fingerprint moved (a full retrain, not a quarantine mask) the delta is
// re-persisted under the new fingerprint so the tenant's personalization
// survives the republish. A delta the new base can no longer host
// (geometry change from an operator swap) is dropped to base
// passthrough, loudly. Entry generations only move forward: if a
// concurrent resolver already rebuilt the entry onto the newest base,
// this is a no-op returning its view. Called with the entry's shard
// lock held.
func (r *TenantRegistry) rebuildLocked(sh *tenantShard, e *tenantEntry) (*infer.Engine, error) {
	bs := r.adoptBase()
	if e.gen == bs.gen {
		return e.eng, nil
	}
	r.rebuilds.Add(1)
	if e.delta == nil {
		e.eng = bs.eng
		e.gen = bs.gen
		e.fp = bs.fp
		return e.eng, nil
	}
	eng, err := bs.eng.WithDelta(e.delta)
	if err != nil {
		r.mismatches.Add(1)
		r.setLastErr(fmt.Errorf("tenant %s: delta incompatible with new base: %w", e.id, err))
		r.bytes.Add(-int64(e.bytes))
		r.residents.Add(-1)
		e.delta, e.bytes, e.sig = nil, 0, 0
		e.eng = bs.eng
		e.gen = bs.gen
		e.fp = bs.fp
		r.journal(obs.Event{Type: obs.EvTenantRebuild, Tenant: e.id,
			Version: bs.srvGen, Detail: "delta incompatible with new base; dropped to base passthrough"})
		return e.eng, nil
	}
	if e.fp != bs.fp {
		if err := r.store.Save(e.id, e.delta, bs.fp); err != nil {
			// Keep serving the rebuilt view; the stale record on disk
			// will be rejected at its next cold load, which is the loud
			// path an operator investigates.
			r.setLastErr(err)
		}
	}
	e.eng = eng
	e.gen = bs.gen
	e.fp = bs.fp
	r.journal(obs.Event{Type: obs.EvTenantRebuild, Tenant: e.id, Version: bs.srvGen,
		Detail: "delta view rebuilt over new base"})
	return e.eng, nil
}

// resolveCold loads a tenant miss from the store and caches the result —
// a delta view, or a base passthrough entry when the tenant has no
// (usable) delta. Base-fingerprint mismatches are the designed-for
// failure: counted, remembered, and served from the shared base rather
// than failing the tenant's requests; every other store error is
// surfaced to the caller.
func (r *TenantRegistry) resolveCold(id string) (*infer.Engine, error) {
	if err := ValidTenantID(id); err != nil {
		return nil, err
	}
	o := r.srv.Obs()
	var t0 time.Time
	if o != nil {
		t0 = time.Now()
	}
	bs := r.currentBase()

	detail := "base passthrough (no delta)"
	d, err := r.store.Load(id, bs.eng.Model(), bs.fp)
	switch {
	case err == nil:
		r.coldLoads.Add(1)
	case errors.Is(err, ErrNoDelta):
		d = nil
	case errors.Is(err, boosthd.ErrBaseMismatch):
		r.mismatches.Add(1)
		r.setLastErr(err)
		detail = "delta rejected: base fingerprint mismatch; base passthrough"
		d = nil
	default:
		r.setLastErr(err)
		return nil, err
	}

	e := &tenantEntry{id: id, delta: d, eng: bs.eng, gen: bs.gen, fp: bs.fp}
	if d != nil {
		eng, err := bs.eng.WithDelta(d)
		if err != nil {
			r.setLastErr(err)
			return nil, err
		}
		e.eng = eng
		e.sig = signDelta(d)
		e.bytes = d.MemoryBytes()
		detail = fmt.Sprintf("delta loaded (%d bytes)", e.bytes)
	}
	if o != nil {
		o.ColdLoad.Observe(uint64(time.Since(t0).Nanoseconds()))
		o.Journal.Append(obs.Event{Type: obs.EvTenantColdLoad, Tenant: id, Detail: detail})
	}

	sh := r.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.entries[id]; ok {
		// A concurrent resolve or install won the race; keep its entry
		// (rebuildLocked is a no-op when its view is already current).
		sh.lru.MoveToFront(el)
		return r.rebuildLocked(sh, el.Value.(*tenantEntry))
	}
	sh.entries[id] = sh.lru.PushFront(e)
	r.cached.Add(1)
	if e.delta != nil {
		r.residents.Add(1)
		r.bytes.Add(int64(e.bytes))
	}
	// The base may have swapped while we were loading; rebuildLocked
	// no-ops when the entry is already current.
	eng, err := r.rebuildLocked(sh, e)
	r.evictLocked(sh)
	return eng, err
}

// Install publishes a freshly trained delta for a tenant: the view is
// built over the current base, written through to the store (so a later
// eviction loses nothing), and swapped into the tenant's shard
// atomically with respect to Resolve. A store failure keeps the resident
// view serving and returns the error — the operator must know the delta
// is not yet durable.
func (r *TenantRegistry) Install(id string, d *boosthd.Delta) error {
	if err := ValidTenantID(id); err != nil {
		return err
	}
	if d == nil {
		return fmt.Errorf("serve: install: nil delta for tenant %s", id)
	}
	bs := r.currentBase()

	eng, err := bs.eng.WithDelta(d)
	if err != nil {
		return fmt.Errorf("serve: install tenant %s: %w", id, err)
	}
	saveErr := r.store.Save(id, d, bs.fp)
	if saveErr != nil {
		r.setLastErr(saveErr)
	}

	e := &tenantEntry{id: id, delta: d, eng: eng, sig: signDelta(d),
		gen: bs.gen, fp: bs.fp, bytes: d.MemoryBytes()}
	sh := r.shard(id)
	sh.mu.Lock()
	if el, ok := sh.entries[id]; ok {
		old := el.Value.(*tenantEntry)
		r.bytes.Add(-int64(old.bytes))
		if old.delta != nil {
			r.residents.Add(-1)
		}
		el.Value = e
		sh.lru.MoveToFront(el)
	} else {
		sh.entries[id] = sh.lru.PushFront(e)
		r.cached.Add(1)
	}
	r.residents.Add(1)
	r.bytes.Add(int64(e.bytes))
	r.evictLocked(sh)
	sh.mu.Unlock()
	return saveErr
}

func (r *TenantRegistry) removeLocked(sh *tenantShard, el *list.Element) {
	e := el.Value.(*tenantEntry)
	delete(sh.entries, e.id)
	sh.lru.Remove(el)
	r.cached.Add(-1)
	if e.delta != nil {
		r.residents.Add(-1)
	}
	r.bytes.Add(-int64(e.bytes))
}

// evictLocked trims a shard's LRU past its capacity slice. Every
// resident delta was written through at install/cold-load, so dropping
// the tail loses only the cached view, never tenant state.
func (r *TenantRegistry) evictLocked(sh *tenantShard) {
	for sh.lru.Len() > sh.cap {
		el := sh.lru.Back()
		if el == nil {
			return
		}
		id := el.Value.(*tenantEntry).id
		r.removeLocked(sh, el)
		r.evictions.Add(1)
		r.journal(obs.Event{Type: obs.EvTenantEvict, Tenant: id, Detail: "lru capacity"})
	}
}

// signDelta folds a delta's identity — overridden indexes, their class
// memory bits, and the tenant alphas — into one FNV-64 digest. The
// tenant scrub pass re-folds every resident delta and evicts any whose
// memory moved without an install: the base model is signed once by the
// reliability monitor, each resident delta separately here, so fleet
// scrub cost is base + sum(deltas), not tenants x model.
func signDelta(d *boosthd.Delta) uint64 {
	const (
		offset uint64 = 14695981039346656037
		prime  uint64 = 1099511628211
	)
	h := offset
	fold := func(w uint64) {
		h ^= w
		h *= prime
	}
	for _, i := range d.Indexes() {
		fold(uint64(i))
		d.Learners[i].ReadClass(func(class []hdc.Vector, _ uint64) {
			for _, cv := range class {
				for _, x := range cv {
					fold(math.Float64bits(x))
				}
			}
		})
	}
	for _, a := range d.Alphas {
		fold(math.Float64bits(a))
	}
	return h
}

// ScrubTenants verifies every resident delta against the signature taken
// at install/cold-load and evicts corrupted entries — their next resolve
// restores from the store's authoritative record. When the store
// supports compaction, healthy residents then get their delta journals
// folded back into full records, so steady-state journal replay cost is
// bounded by the scrub cadence. Shards are locked one at a time, only to
// snapshot or evict — signature folds and compaction I/O run without any
// shard lock held. Returns the number of entries scrubbed and the number
// evicted as corrupted.
func (r *TenantRegistry) ScrubTenants() (scrubbed, corrupted int) {
	type probe struct {
		id    string
		delta *boosthd.Delta
		sig   uint64
		fp    uint64
	}
	var probes []probe
	for si := range r.shards {
		sh := &r.shards[si]
		sh.mu.Lock()
		for _, el := range sh.entries {
			e := el.Value.(*tenantEntry)
			if e.delta != nil {
				probes = append(probes, probe{e.id, e.delta, e.sig, e.fp})
			}
		}
		sh.mu.Unlock()
	}

	bad := make(map[string]*boosthd.Delta)
	for _, p := range probes {
		if signDelta(p.delta) != p.sig {
			bad[p.id] = p.delta
		}
	}
	if len(bad) > 0 {
		for id, delta := range bad {
			sh := r.shard(id)
			sh.mu.Lock()
			if el, ok := sh.entries[id]; ok {
				if e := el.Value.(*tenantEntry); e.delta == delta {
					r.removeLocked(sh, el)
					r.corruptions.Add(1)
					corrupted++
					r.journal(obs.Event{Type: obs.EvTenantEvict, Tenant: id,
						Detail: "scrub signature mismatch; evicted for cold restore"})
				}
			}
			sh.mu.Unlock()
		}
		r.setLastErr(fmt.Errorf("tenant scrub: %d resident delta(s) corrupted, evicted for cold restore", corrupted))
	}

	if c, ok := r.store.(DeltaCompactor); ok {
		for _, p := range probes {
			if _, isBad := bad[p.id]; isBad {
				continue
			}
			did, err := c.Compact(p.id, p.delta, p.fp)
			if err != nil {
				r.setLastErr(err)
				continue
			}
			if did {
				r.compactions.Add(1)
				r.journal(obs.Event{Type: obs.EvTenantCompact, Tenant: p.id,
					Detail: "delta journal folded into full record"})
			}
		}
	}
	r.scrubs.Add(1)
	return len(probes), corrupted
}

// Start launches the background tenant scrub loop. No-op if already
// running or every <= 0.
func (r *TenantRegistry) Start(every time.Duration) {
	if every <= 0 {
		return
	}
	r.loopMu.Lock()
	defer r.loopMu.Unlock()
	if r.stop != nil {
		return
	}
	r.stop = make(chan struct{})
	r.done = make(chan struct{})
	go func(stop, done chan struct{}) {
		defer close(done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				r.ScrubTenants()
			}
		}
	}(r.stop, r.done)
}

// Stop halts the scrub loop and waits for it to exit.
func (r *TenantRegistry) Stop() {
	r.loopMu.Lock()
	defer r.loopMu.Unlock()
	if r.stop == nil {
		return
	}
	close(r.stop)
	<-r.done
	r.stop, r.done = nil, nil
}

func (r *TenantRegistry) setLastErr(err error) {
	r.lastErrMu.Lock()
	r.lastErr = err.Error()
	r.lastErrMu.Unlock()
}

// Stats snapshots the registry counters without touching any shard lock:
// residency gauges are maintained atomically at every insert/remove, and
// the base identity comes from the published base state — so a /tenants
// poll costs O(1) and can never block a resolve, no matter how many
// tenants are resident.
func (r *TenantRegistry) Stats() TenantStats {
	bs := r.base.Load()
	st := TenantStats{
		Residents:     int(r.residents.Load()),
		Cached:        int(r.cached.Load()),
		Capacity:      r.cap,
		Shards:        len(r.shards),
		ResidentBytes: r.bytes.Load(),
		BaseVersion:   bs.srvGen,
		BaseHash:      fmt.Sprintf("%016x", bs.fp),
	}
	st.Hits = r.hits.Load()
	st.Misses = r.misses.Load()
	st.ColdLoads = r.coldLoads.Load()
	st.Evictions = r.evictions.Load()
	st.Mismatches = r.mismatches.Load()
	st.Rebuilds = r.rebuilds.Load()
	st.Corruptions = r.corruptions.Load()
	st.Scrubs = r.scrubs.Load()
	st.Compactions = r.compactions.Load()
	r.lastErrMu.Lock()
	st.LastError = r.lastErr
	r.lastErrMu.Unlock()
	return st
}
