package trainer

import (
	"container/list"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"boosthd/internal/boosthd"
	"boosthd/internal/onlinehd"
	"boosthd/internal/serve"
)

// TenantConfig tunes a TenantTrainer.
type TenantConfig struct {
	// BufferCap bounds each tenant's private sample buffer. Default 1024.
	BufferCap int
	// MinRetrain is the fewest buffered samples a tenant retrain will
	// refit from; below it the call reports Swapped=false. Default 32.
	MinRetrain int
	// MaxTenants bounds how many tenant buffers stay resident; the least
	// recently observed tenant's buffer is dropped past it (its persisted
	// delta, if any, is untouched — only unconsumed observations are
	// lost). Default 4096.
	MaxTenants int
	// MaxDeltaLearners is how many of the base's worst learners (by solo
	// accuracy on the tenant's buffer) a retrain overrides. This is the
	// copy-on-write budget: the tenant's resident and persisted state is
	// MaxDeltaLearners class memories plus one alpha slice. Default 2.
	MaxDeltaLearners int
	// Epochs overrides the base config's fit epochs for delta refits;
	// zero inherits.
	Epochs int
	// Seed drives buffer reservoir sampling and bootstrap resampling;
	// per-tenant streams are decorrelated by folding the tenant ID in.
	// Default 1.
	Seed int64
}

func (c TenantConfig) withDefaults() TenantConfig {
	if c.BufferCap <= 0 {
		c.BufferCap = 1024
	}
	if c.MinRetrain <= 0 {
		c.MinRetrain = 32
	}
	if c.MaxTenants <= 0 {
		c.MaxTenants = 4096
	}
	if c.MaxDeltaLearners <= 0 {
		c.MaxDeltaLearners = 2
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// tenantStream is one tenant's private training state: a bounded
// label-aware buffer plus a retrain lock. Observations never touch the
// shared base model — tenant personalization is isolated by
// construction, applied only through the registry's delta install.
type tenantStream struct {
	id  string
	buf *Buffer
	// retrainMu serializes this tenant's retrains (TryLock -> ErrBusy),
	// independent of every other tenant and of the base trainer.
	retrainMu sync.Mutex
}

// TenantTrainer implements serve.TenantTrainer over a tenant registry:
// per-tenant observations land in per-tenant buffers, and a tenant
// retrain refits only the copy-on-write delta — the base's worst-scoring
// learners on that tenant's data — then installs it through the
// registry's write-through store. The shared base model is never
// written: base retrains stay the base Trainer's job, and their swaps
// propagate to every tenant via the registry's generation tracking.
//
// All methods are safe for concurrent use; distinct tenants retrain
// concurrently.
type TenantTrainer struct {
	cfg TenantConfig
	reg *serve.TenantRegistry

	mu      sync.Mutex
	streams map[string]*list.Element // tenant id -> *tenantStream element
	lru     *list.List               // front = most recently observed
}

// NewTenantTrainer builds a TenantTrainer installing deltas into reg.
func NewTenantTrainer(reg *serve.TenantRegistry, cfg TenantConfig) (*TenantTrainer, error) {
	if reg == nil {
		return nil, fmt.Errorf("trainer: nil tenant registry")
	}
	return &TenantTrainer{
		cfg:     cfg.withDefaults(),
		reg:     reg,
		streams: make(map[string]*list.Element),
		lru:     list.New(),
	}, nil
}

// stream returns the tenant's buffer, creating it (and evicting the
// least recently observed past MaxTenants) on first sight.
func (t *TenantTrainer) stream(tenant string, classes int) *tenantStream {
	t.mu.Lock()
	defer t.mu.Unlock()
	if el, ok := t.streams[tenant]; ok {
		t.lru.MoveToFront(el)
		return el.Value.(*tenantStream)
	}
	ts := &tenantStream{
		id:  tenant,
		buf: NewBuffer(t.cfg.BufferCap, classes, t.cfg.Seed+int64(tenantHash(tenant))),
	}
	t.streams[tenant] = t.lru.PushFront(ts)
	for t.lru.Len() > t.cfg.MaxTenants {
		old := t.lru.Back()
		delete(t.streams, old.Value.(*tenantStream).id)
		t.lru.Remove(old)
	}
	return ts
}

// tenantHash folds a tenant ID into a seed offset (FNV-1a) so sibling
// tenants' reservoir and bootstrap streams are decorrelated.
func tenantHash(tenant string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(tenant); i++ {
		h ^= uint32(tenant[i])
		h *= 16777619
	}
	return h
}

// ObserveTenant buffers one labeled sample for the tenant. Unlike the
// base trainer's Observe there is no incremental online update: tenant
// observations must never move the shared class memories every other
// tenant scores through, so they accumulate in the tenant's buffer until
// RetrainTenant folds them into that tenant's private delta.
func (t *TenantTrainer) ObserveTenant(tenant string, x []float64, label int) error {
	if err := serve.ValidTenantID(tenant); err != nil {
		return fmt.Errorf("%w: %v", serve.ErrBadInput, err)
	}
	m := t.reg.Base().Model()
	if label < 0 || label >= m.Cfg.Classes {
		return fmt.Errorf("%w: label %d outside [0,%d)", serve.ErrBadInput, label, m.Cfg.Classes)
	}
	if err := serve.CheckRow(x, m.InputDim()); err != nil {
		return err
	}
	t.stream(tenant, m.Cfg.Classes).buf.Add(x, label)
	return nil
}

// ObserveTenantBatch buffers a labeled batch for the tenant
// all-or-nothing: every row is validated before any is buffered.
func (t *TenantTrainer) ObserveTenantBatch(tenant string, X [][]float64, y []int) error {
	if err := serve.ValidTenantID(tenant); err != nil {
		return fmt.Errorf("%w: %v", serve.ErrBadInput, err)
	}
	if len(X) != len(y) {
		return fmt.Errorf("%w: %d rows with %d labels", serve.ErrBadInput, len(X), len(y))
	}
	m := t.reg.Base().Model()
	for i, row := range X {
		if y[i] < 0 || y[i] >= m.Cfg.Classes {
			return fmt.Errorf("%w: row %d label %d outside [0,%d)", serve.ErrBadInput, i, y[i], m.Cfg.Classes)
		}
		if err := serve.CheckRow(row, m.InputDim()); err != nil {
			return fmt.Errorf("row %d: %w", i, err)
		}
	}
	ts := t.stream(tenant, m.Cfg.Classes)
	for i := range X {
		ts.buf.Add(X[i], y[i])
	}
	return nil
}

// RetrainTenant refits the tenant's copy-on-write delta from its buffer:
// the base's learners are scored solo on the tenant's data, the worst
// MaxDeltaLearners are refit from scratch on the tenant's segment
// encodings (same OnlineHD fit the base training used, so the override
// is a drop-in replacement in the same hyperspace), the ensemble alphas
// are reweighted over the tenant's data through the composed view, and
// the delta is installed in the registry — which persists it
// write-through and swaps the tenant's serving view atomically. The
// shared base and every other tenant are untouched by construction.
func (t *TenantTrainer) RetrainTenant(tenant string) (serve.RetrainReport, error) {
	if err := serve.ValidTenantID(tenant); err != nil {
		return serve.RetrainReport{}, fmt.Errorf("%w: %v", serve.ErrBadInput, err)
	}
	start := time.Now()
	base := t.reg.Base().Model()
	ts := t.stream(tenant, base.Cfg.Classes)
	// TryLock, not Lock: a duplicate retrain request for the same tenant
	// is answered busy instead of queueing serial refits. Other tenants
	// hold their own locks and proceed concurrently.
	if !ts.retrainMu.TryLock() {
		return serve.RetrainReport{Reason: "another retrain is in flight for this tenant"}, serve.ErrBusy
	}
	defer ts.retrainMu.Unlock()

	X, y := ts.buf.Snapshot()
	report := serve.RetrainReport{
		Samples: len(X),
		Backend: t.reg.Base().Backend().String(),
		Mode:    "tenant-delta",
	}
	if len(X) < t.cfg.MinRetrain {
		report.Reason = fmt.Sprintf("need >= %d buffered samples, have %d", t.cfg.MinRetrain, len(X))
		report.TookMS = time.Since(start).Seconds() * 1e3
		return report, nil
	}
	if classesPresent(y) < 2 {
		report.Reason = "buffer holds fewer than 2 classes"
		report.TookMS = time.Since(start).Seconds() * 1e3
		return report, nil
	}

	d, err := t.fitDelta(base, X, y)
	if err != nil {
		return report, fmt.Errorf("trainer: tenant %s: %w", tenant, err)
	}
	if err := t.reg.Install(tenant, d); err != nil {
		// The view is installed and serving even when persistence failed;
		// surface the store error so the operator knows the delta will
		// not survive an eviction or restart.
		return report, fmt.Errorf("trainer: tenant %s: %w", tenant, err)
	}
	report.Swapped = true
	report.TookMS = time.Since(start).Seconds() * 1e3
	return report, nil
}

// fitDelta builds the tenant's delta over (X, y): worst-K learner
// selection, refits of those learners from their segments' encodings
// alone, and the alpha reweight through the composed view. The base
// model is only read (under its learner locks).
func (t *TenantTrainer) fitDelta(base *boosthd.Model, X [][]float64, y []int) (*boosthd.Delta, error) {
	acc, err := base.EvaluateLearners(X, y)
	if err != nil {
		return nil, err
	}
	k := t.cfg.MaxDeltaLearners
	if k > len(acc) {
		k = len(acc)
	}
	order := make([]int, len(acc))
	for i := range order {
		order[i] = i
	}
	// Worst solo accuracy first; ties break on index so the override set
	// is deterministic for a given buffer.
	sort.SliceStable(order, func(a, b int) bool { return acc[order[a]] < acc[order[b]] })
	picked := append([]int(nil), order[:k]...)
	sort.Ints(picked)

	segs := base.Segments()
	epochs := t.cfg.Epochs
	if epochs <= 0 {
		epochs = base.Cfg.Epochs
	}
	d := &boosthd.Delta{Learners: make(map[int]*onlinehd.HVClassifier, k)}
	var buf []float64
	for _, i := range picked {
		sub, b, err := base.EncodeSegment(i, X, buf)
		if err != nil {
			return nil, err
		}
		buf = b
		hv, err := onlinehd.NewHVClassifier(segs[i][1]-segs[i][0], base.Cfg.Classes, base.Cfg.LR)
		if err != nil {
			return nil, err
		}
		opt := onlinehd.FitOptions{Epochs: epochs, Bootstrap: base.Cfg.Bootstrap}
		if base.Cfg.Bootstrap {
			opt.Rng = rand.New(rand.NewSource(base.Cfg.Seed + 977))
		}
		if err := hv.Fit(sub, y, opt); err != nil {
			return nil, err
		}
		d.Learners[i] = hv
	}

	// Reweight the ensemble over the tenant's data through the composed
	// view, so the overrides' competence (and the shared learners'
	// competence on THIS tenant's distribution) sets the vote weights.
	view, err := base.WithDelta(d)
	if err != nil {
		return nil, err
	}
	if err := view.ReweightAlphas(X, y); err != nil {
		return nil, err
	}
	// The reweight rescored every learner, including ones the base has
	// quarantined (alpha 0) whose shared memory the tenant must not
	// trust. Re-apply the zero for non-overridden learners — the same
	// composition rule WithDelta enforces at view-build time.
	for i, a := range base.Alphas {
		if a == 0 {
			if _, overridden := d.Learners[i]; !overridden {
				view.Alphas[i] = 0
			}
		}
	}
	d.Alphas = append([]float64(nil), view.Alphas...)
	return d, nil
}
