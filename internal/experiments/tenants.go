package experiments

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"boosthd/internal/boosthd"
	"boosthd/internal/hdc"
	"boosthd/internal/infer"
	"boosthd/internal/onlinehd"
	"boosthd/internal/serve"
)

// synthDeltaStore simulates a fleet-scale per-tenant checkpoint store
// without materializing one file per tenant: every tenant's delta is
// generated deterministically from its ID on Load (a perturbed copy of
// the base's learners), so a million-tenant sweep costs only the
// resident working set. Save drops the record — the sweep never needs
// it back, and the write-through path is still exercised.
type synthDeltaStore struct {
	k int // overridden learners per tenant
}

func (s synthDeltaStore) Load(tenant string, base *boosthd.Model, baseFP uint64) (*boosthd.Delta, error) {
	seed := int64(tenantSeed(tenant))
	rng := rand.New(rand.NewSource(seed))
	nl := len(base.Learners)
	k := s.k
	if k > nl {
		k = nl
	}
	picked := rng.Perm(nl)[:k]
	sort.Ints(picked)
	d := &boosthd.Delta{Learners: make(map[int]*onlinehd.HVClassifier, k)}
	for _, i := range picked {
		bl := base.Learners[i]
		var class []hdc.Vector
		bl.ReadClass(func(cv []hdc.Vector, _ uint64) {
			class = make([]hdc.Vector, len(cv))
			for c, v := range cv {
				class[c] = v.Clone()
			}
		})
		// A small deterministic perturbation: the tenant's "personalized"
		// memory differs from the base without retraining anything.
		for _, v := range class {
			for j := range v {
				v[j] += 0.05 * rng.NormFloat64()
			}
		}
		hv, err := onlinehd.NewHVClassifierFrom(bl.Dim, class, base.Cfg.LR)
		if err != nil {
			return nil, err
		}
		d.Learners[i] = hv
	}
	return d, nil
}

func (s synthDeltaStore) Save(string, *boosthd.Delta, uint64) error { return nil }

// tenantSeed folds a tenant ID into a deterministic seed (FNV-1a).
func tenantSeed(tenant string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(tenant); i++ {
		h ^= uint32(tenant[i])
		h *= 16777619
	}
	return h
}

// tenantIDs labels the simulated fleet.
func tenantIDs(n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("t%06d", i)
	}
	return ids
}

// materializeTenant builds the fully-copied per-tenant model the
// copy-on-write view must match bit-for-bit: a deep clone of the base
// with the delta's learners and alphas substituted in.
func materializeTenant(base *boosthd.Model, d *boosthd.Delta) (*boosthd.Model, error) {
	m := base.Clone()
	for i, l := range d.Learners {
		var class []hdc.Vector
		l.ReadClass(func(cv []hdc.Vector, _ uint64) {
			class = make([]hdc.Vector, len(cv))
			for c, v := range cv {
				class[c] = v.Clone()
			}
		})
		if err := m.Learners[i].SetClass(class); err != nil {
			return nil, err
		}
	}
	if d.Alphas != nil {
		m.Alphas = append([]float64(nil), d.Alphas...)
	}
	return m, nil
}

// tenantBase trains the shared base model the multi-tenant experiments
// multiplex: quick mode shrinks the cohort and dimensionality so the
// sweeps measure the serving layer, not training.
func tenantBase(opt Options) (*boosthd.Model, *split, int, int, error) {
	q := opt.quality()
	hdDim, nl := q.HDDim, q.NL
	if opt.Quick && opt.HDDimOverride <= 0 {
		hdDim = 2000
	}
	cfg0 := opt.wesadConfig()
	if opt.Quick {
		cfg0.NumSubjects = 10
		cfg0.SamplesPerState = 768
	}
	sp, err := prepare(opt.applyOverrides(cfg0), opt.Seed)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	cfg := boosthd.DefaultConfig(hdDim, nl, sp.numClasses)
	cfg.Epochs = 3
	if !opt.Quick {
		cfg.Epochs = q.HDEpochs
	}
	cfg.Seed = opt.Seed
	base, err := boosthd.Train(sp.train.X, sp.train.Y, cfg)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	return base, sp, hdDim, nl, nil
}

// RunTenants produces the multi-tenant serving table: a simulated fleet
// of tenants (10k quick, 1M at -full) multiplexed over one shared base
// model through the tenant registry, swept under uniform and zipf-skewed
// active-set distributions. Reported per cell: sustained resolve+predict
// throughput with latency percentiles, the cache hit rate, and resident
// delta bytes per tenant against a full per-tenant model copy — the
// memory multiplier that makes one-process-per-tenant unaffordable and
// copy-on-write deltas the fleet-scale alternative. Before the sweep,
// tenant views are spot-checked bit-for-bit against fully materialized
// per-tenant models on both backends.
func RunTenants(opt Options) (*Table, error) {
	base, sp, hdDim, nl, err := tenantBase(opt)
	if err != nil {
		return nil, err
	}

	store := synthDeltaStore{k: 2}

	// Bit-for-bit gate: a copy-on-write tenant view must predict exactly
	// like the fully materialized per-tenant model, on both backends,
	// before any throughput number means anything.
	probeRows := sp.test.X
	if len(probeRows) > 256 {
		probeRows = probeRows[:256]
	}
	baseFloat := infer.NewEngine(base)
	baseBin, err := infer.NewBinaryEngine(base)
	if err != nil {
		return nil, err
	}
	baseFP := base.Fingerprint()
	for _, tid := range []string{"t000000", "t000007", "t004242"} {
		d, err := store.Load(tid, base, baseFP)
		if err != nil {
			return nil, err
		}
		mat, err := materializeTenant(base, d)
		if err != nil {
			return nil, err
		}
		matBin, err := infer.NewBinaryEngine(mat)
		if err != nil {
			return nil, err
		}
		viewFloat, err := baseFloat.WithDelta(d)
		if err != nil {
			return nil, err
		}
		viewBin, err := baseBin.WithDelta(d)
		if err != nil {
			return nil, err
		}
		for r, x := range probeRows {
			wantF, err := mat.Predict(x)
			if err != nil {
				return nil, err
			}
			gotF, err := viewFloat.Predict(x)
			if err != nil {
				return nil, err
			}
			if gotF != wantF {
				return nil, fmt.Errorf("experiments: tenant %s row %d: float view predicts %d, materialized model %d",
					tid, r, gotF, wantF)
			}
			wantB, err := matBin.Predict(x)
			if err != nil {
				return nil, err
			}
			gotB, err := viewBin.Predict(x)
			if err != nil {
				return nil, err
			}
			if gotB != wantB {
				return nil, fmt.Errorf("experiments: tenant %s row %d: binary view predicts %d, fully re-quantized model %d",
					tid, r, gotB, wantB)
			}
		}
	}

	numTenants := 1_000_000
	cacheSize := 4096
	clients := 8
	dur := time.Second
	if opt.Quick {
		numTenants = 10_000
		cacheSize = 512
		dur = 300 * time.Millisecond
	}
	ids := tenantIDs(numTenants)
	// What one-process-per-tenant would pay: the class memory plus the
	// encoder state (the projection is the dominant term for stored
	// projections), both of which every tenant view shares instead.
	fullCopyBytes := 8*base.Cfg.TotalDim*base.Cfg.Classes + base.EncoderStateBytes()

	t := &Table{
		Title: fmt.Sprintf("Multi-tenant serving: %d tenants over one base (Dtotal=%d NL=%d, cache %d views, %d clients) on %s",
			numTenants, hdDim, nl, cacheSize, clients, sp.name),
		Header: []string{"skew", "req/s", "p50 ms", "p99 ms", "hit rate", "cold loads", "B/tenant resident", "full copy B", "copy ratio"},
	}

	type skew struct {
		name string
		next func(rng *rand.Rand) int
	}
	skews := []skew{
		{"uniform", func(rng *rand.Rand) int { return rng.Intn(numTenants) }},
	}
	{
		// Zipf-skewed active set: a small head of tenants dominates
		// traffic — the distribution an LRU of resident views exists for.
		mk := func(rng *rand.Rand) func(*rand.Rand) int {
			z := rand.NewZipf(rng, 1.2, 1, uint64(numTenants-1))
			var mu sync.Mutex
			return func(*rand.Rand) int {
				mu.Lock()
				v := int(z.Uint64())
				mu.Unlock()
				return v
			}
		}
		skews = append(skews, skew{"zipf(1.2)", mk(rand.New(rand.NewSource(opt.Seed + 11)))})
	}

	var lastStats serve.TenantStats
	for _, sk := range skews {
		srv, err := serve.NewServer(infer.NewEngine(base), serve.Config{})
		if err != nil {
			return nil, err
		}
		reg, err := serve.NewTenantRegistry(srv, serve.TenantRegistryConfig{
			Store:     store,
			CacheSize: cacheSize,
		})
		if err != nil {
			srv.Close()
			return nil, err
		}
		res, err := runTenantLoad(reg, ids, sp.test.X, clients, dur, opt.Seed, sk.next)
		st := reg.Stats()
		srv.Close()
		if err != nil {
			return nil, err
		}
		hitRate := float64(st.Hits) / float64(st.Hits+st.Misses)
		perTenant := float64(st.ResidentBytes) / float64(maxInt(st.Residents, 1))
		ms := func(d time.Duration) string { return fmt.Sprintf("%.3f", d.Seconds()*1e3) }
		t.AddRow(sk.name,
			fmt.Sprintf("%.0f", res.throughput), ms(res.p50), ms(res.p99),
			fmt.Sprintf("%.1f%%", 100*hitRate),
			fmt.Sprint(st.ColdLoads),
			fmt.Sprintf("%.0f", perTenant),
			fmt.Sprint(fullCopyBytes),
			fmt.Sprintf("%.1fx smaller", float64(fullCopyBytes)/perTenant))
		lastStats = st
	}
	t.AddNote("delta views share the base's encoder, planes, and non-overridden learners; resident cost is %d overridden learners/tenant (%.0f B) vs a %d B full model copy (class memory + encoder state)",
		store.k, float64(lastStats.ResidentBytes)/float64(maxInt(lastStats.Residents, 1)), fullCopyBytes)
	t.AddNote("views spot-checked bit-for-bit against fully materialized per-tenant models on the float and packed-binary backends")
	return t, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// RunTenantContention sweeps the registry's lock-stripe count under a
// 64-goroutine, 100k-tenant zipf-skewed fleet: a resolve-only column
// (the per-request hot path) and a mixed column where installs and
// evictions ride along — the write traffic that serializes a
// single-mutex registry. Each cell reports sustained registry
// operations per second and the speedup over one stripe. The table
// closes with a batch-coalescing drill through the micro-batcher,
// printing how many engine batch calls the tenant-pinned rows coalesced
// into and the resulting hit rate.
func RunTenantContention(opt Options) (*Table, error) {
	base, sp, hdDim, nl, err := tenantBase(opt)
	if err != nil {
		return nil, err
	}
	const (
		numTenants = 100_000
		clients    = 64
	)
	cacheSize := 4096
	dur := 300 * time.Millisecond
	if !opt.Quick {
		dur = time.Second
	}
	ids := tenantIDs(numTenants)
	store := synthDeltaStore{k: 2}
	baseFP := base.Fingerprint()

	// Per-client zipf(1.2) index sequences, drawn before any clock
	// starts: the load loop must not share an RNG, or the RNG's own
	// mutex would pollute the contention measurement.
	seqs := make([][]int32, clients)
	for c := range seqs {
		rng := rand.New(rand.NewSource(opt.Seed + int64(c)*7919))
		z := rand.NewZipf(rng, 1.2, 1, uint64(numTenants-1))
		seq := make([]int32, 1<<14)
		for i := range seq {
			seq[i] = int32(z.Uint64())
		}
		seqs[c] = seq
	}
	// A pool of pre-built deltas for the install mix, so an install
	// measures the registry's write path, not delta synthesis.
	pool := make([]*boosthd.Delta, 64)
	for i := range pool {
		if pool[i], err = store.Load(ids[i*17], base, baseFP); err != nil {
			return nil, err
		}
	}

	t := &Table{
		Title: fmt.Sprintf("Tenant registry lock-stripe sweep: %d tenants zipf(1.2), %d goroutines (Dtotal=%d NL=%d, cache %d) on %s",
			numTenants, clients, hdDim, nl, cacheSize, sp.name),
		Header: []string{"shards", "resolve/s", "speedup", "mixed ops/s", "speedup", "hit rate"},
	}
	var resolve1, mixed1 float64
	for _, shards := range []int{1, 4, 16, 64} {
		resolveTP, _, err := tenantContentionLoad(base, store, ids, seqs, nil, shards, cacheSize, dur)
		if err != nil {
			return nil, err
		}
		mixedTP, hitRate, err := tenantContentionLoad(base, store, ids, seqs, pool, shards, cacheSize, dur)
		if err != nil {
			return nil, err
		}
		if shards == 1 {
			resolve1, mixed1 = resolveTP, mixedTP
		}
		t.AddRow(fmt.Sprint(shards),
			fmt.Sprintf("%.0f", resolveTP), fmt.Sprintf("%.2fx", resolveTP/resolve1),
			fmt.Sprintf("%.0f", mixedTP), fmt.Sprintf("%.2fx", mixedTP/mixed1),
			fmt.Sprintf("%.1f%%", 100*hitRate))
	}
	t.AddNote("mixed = 14/16 resolve + 1/16 install + 1/16 evict per goroutine iteration; installs reuse a pre-built delta pool so the cell measures registry write-path serialization, not delta synthesis")
	if runtime.NumCPU() == 1 {
		t.AddNote("single-CPU host: goroutines timeslice one core, so stripe counts cannot run in parallel and the speedup column degenerates toward 1x; on a multi-core serving host the single-mutex row collapses under the same load and the sweep spreads")
	}

	// Coalescing drill: tenant-pinned predicts through the micro-batcher
	// must still share engine batch calls.
	served, batches, coalesced, tenantRows, err := tenantCoalescingDrill(base, store, sp.test.X[0])
	if err != nil {
		return nil, err
	}
	t.AddNote("batch coalescing: %d rows (%d tenant-pinned) served in %d engine batch calls (%.1f rows/call); coalescing hit rate %.1f%% of rows shared their call",
		served, tenantRows, batches, float64(served)/float64(maxInt(int(batches), 1)), 100*float64(coalesced)/float64(maxInt(int(served), 1)))
	return t, nil
}

// tenantContentionLoad drives one cell of the stripe sweep: 64
// goroutines walking pre-drawn zipf sequences against a fresh registry
// with the given stripe count. A nil pool selects resolve-only;
// otherwise one op in 16 installs from the pool and one evicts.
// Reports operations per second and the cache hit rate.
func tenantContentionLoad(base *boosthd.Model, store serve.DeltaStore, ids []string, seqs [][]int32, pool []*boosthd.Delta, shards, cacheSize int, dur time.Duration) (float64, float64, error) {
	srv, err := serve.NewServer(infer.NewEngine(base), serve.Config{})
	if err != nil {
		return 0, 0, err
	}
	defer srv.Close()
	reg, err := serve.NewTenantRegistry(srv, serve.TenantRegistryConfig{
		Store:     store,
		CacheSize: cacheSize,
		Shards:    shards,
	})
	if err != nil {
		return 0, 0, err
	}

	// One cacheline-padded counter per goroutine: the sweep must not
	// introduce a shared counter of its own, or the harness would add
	// the very contention it is measuring.
	type padded struct {
		n atomic.Int64
		_ [7]int64
	}
	counters := make([]padded, len(seqs))
	sum := func() int64 {
		var s int64
		for i := range counters {
			s += counters[i].n.Load()
		}
		return s
	}
	var firstErr atomic.Pointer[error]
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := range seqs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			seq := seqs[c]
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := ids[seq[i%len(seq)]]
				var err error
				switch {
				case pool != nil && i%16 == 5:
					err = reg.Install(id, pool[(c*31+i)%len(pool)])
				case pool != nil && i%16 == 11:
					reg.Evict(id)
				default:
					_, err = reg.Resolve(id)
				}
				if err != nil {
					firstErr.CompareAndSwap(nil, &err)
					return
				}
				counters[c].n.Add(1)
			}
		}(c)
	}
	// Let the resident head warm before the timed window: the sweep
	// measures steady-state stripe contention, not cold-start churn.
	time.Sleep(dur / 3)
	pre := reg.Stats()
	start := time.Now()
	startOps := sum()
	time.Sleep(dur)
	elapsed := time.Since(start)
	windowOps := sum() - startOps
	close(stop)
	wg.Wait()
	if ep := firstErr.Load(); ep != nil {
		return 0, 0, *ep
	}
	post := reg.Stats()
	den := float64((post.Hits - pre.Hits) + (post.Misses - pre.Misses))
	hitRate := 0.0
	if den > 0 {
		hitRate = float64(post.Hits-pre.Hits) / den
	}
	return float64(windowOps) / elapsed.Seconds(), hitRate, nil
}

// tenantCoalescingDrill pushes interleaved base and tenant-pinned
// predicts through one micro-batcher worker and reports the batcher's
// coalescing counters.
func tenantCoalescingDrill(base *boosthd.Model, store serve.DeltaStore, row []float64) (served, batches, coalesced, tenantRows uint64, err error) {
	srv, err := serve.NewServer(infer.NewEngine(base), serve.Config{MaxBatch: 32, MaxWait: 2 * time.Millisecond, Workers: 1})
	if err != nil {
		return 0, 0, 0, 0, err
	}
	defer srv.Close()
	reg, err := serve.NewTenantRegistry(srv, serve.TenantRegistryConfig{Store: store, CacheSize: 64})
	if err != nil {
		return 0, 0, 0, 0, err
	}
	views := make([]*infer.Engine, 3)
	views[0] = nil // base traffic
	for i, id := range []string{"t000000", "t000007"} {
		if views[i+1], err = reg.Resolve(id); err != nil {
			return 0, 0, 0, 0, err
		}
	}
	var wg sync.WaitGroup
	var firstErr atomic.Pointer[error]
	for c := 0; c < 24; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 32; i++ {
				if _, err := srv.PredictOn(views[(c+i)%len(views)], row); err != nil {
					firstErr.CompareAndSwap(nil, &err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if ep := firstErr.Load(); ep != nil {
		return 0, 0, 0, 0, *ep
	}
	st := srv.Stats()
	return st.Served, st.Batches, st.CoalescedRows, st.TenantRows, nil
}

// runTenantLoad hammers Resolve+Predict with `clients` goroutines drawing
// tenant IDs from the given skew for roughly dur, reporting sustained
// throughput and latency percentiles over the combined resolve+score
// path (the tenant HTTP handlers' exact sequence).
func runTenantLoad(reg *serve.TenantRegistry, ids []string, rows [][]float64, clients int, dur time.Duration, seed int64, next func(*rand.Rand) int) (serveLoadResult, error) {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		lats     []time.Duration
		firstErr error
	)
	stop := make(chan struct{})
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(c)*7919))
			local := make([]time.Duration, 0, 4096)
			for i := 0; ; i++ {
				select {
				case <-stop:
					mu.Lock()
					lats = append(lats, local...)
					mu.Unlock()
					return
				default:
				}
				t0 := time.Now()
				eng, err := reg.Resolve(ids[next(rng)])
				if err == nil {
					_, err = eng.Predict(rows[(c*31+i)%len(rows)])
				}
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					lats = append(lats, local...)
					mu.Unlock()
					return
				}
				local = append(local, time.Since(t0))
			}
		}(c)
	}
	time.Sleep(dur)
	close(stop)
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return serveLoadResult{}, firstErr
	}
	if len(lats) == 0 {
		return serveLoadResult{}, fmt.Errorf("experiments: no tenant requests completed")
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pct := func(p float64) time.Duration { return lats[int(p*float64(len(lats)-1))] }
	return serveLoadResult{
		throughput: float64(len(lats)) / elapsed.Seconds(),
		p50:        pct(0.50),
		p99:        pct(0.99),
	}, nil
}
