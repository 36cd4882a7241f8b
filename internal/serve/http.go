package serve

import (
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"boosthd/internal/boosthd"
	"boosthd/internal/infer"
	"boosthd/internal/obs"
)

// Trainer is the streaming continual-learning hook the HTTP layer can
// expose: labeled samples flow in through Observe, Retrain refits the
// model over the trainer's buffer off the serving path and installs the
// result through the server's atomic swap. internal/trainer provides
// the implementation; the interface lives here so the transport layer
// does not depend on it.
type Trainer interface {
	// Observe ingests one labeled sample. Validation failures wrap
	// ErrBadInput so the transport answers them as client errors.
	Observe(x []float64, label int) error
	// ObserveBatch ingests a labeled batch all-or-nothing: every row is
	// validated before any is buffered or applied, so a 400 means the
	// stream state is untouched and the client can safely retry the
	// whole batch.
	ObserveBatch(X [][]float64, y []int) error
	// Retrain refits over the buffered samples and hot-swaps the result
	// in. A retrain that cannot run yet (buffer too small) is not an
	// error: the report says Swapped=false with the reason.
	Retrain() (RetrainReport, error)
	// Adopt installs eng as the serving engine AND re-points the trainer
	// at the model behind it, atomically with respect to retrains — the
	// /swap path must go through it when a trainer is active, or the
	// next retrain would refit the stale model and silently revert the
	// operator's swap.
	Adopt(eng *infer.Engine) error
	// Status snapshots the trainer counters.
	Status() TrainerStatus
}

// RetrainReport describes one Retrain call.
type RetrainReport struct {
	Swapped bool    `json:"swapped"`
	Reason  string  `json:"reason,omitempty"` // why nothing was swapped
	Samples int     `json:"samples"`          // buffered samples the refit saw
	Backend string  `json:"backend,omitempty"`
	Mode    string  `json:"mode,omitempty"` // "full" refit or "alphas" reweight
	TookMS  float64 `json:"took_ms"`
}

// TenantTrainer is the per-tenant continual-learning hook: labeled
// samples flow into a tenant's private buffer through ObserveTenant, and
// RetrainTenant refits only that tenant's delta learners — never the
// shared base, never another tenant's state. internal/trainer provides
// the implementation; the interface lives here so the transport layer
// does not depend on it.
type TenantTrainer interface {
	// ObserveTenant buffers one labeled sample for the tenant.
	// Validation failures wrap ErrBadInput.
	ObserveTenant(tenant string, x []float64, label int) error
	// ObserveTenantBatch buffers a labeled batch all-or-nothing.
	ObserveTenantBatch(tenant string, X [][]float64, y []int) error
	// RetrainTenant refits the tenant's worst base learners on the
	// tenant's buffer and installs the resulting delta in the registry.
	// A retrain that cannot run yet reports Swapped=false with the
	// reason rather than an error.
	RetrainTenant(tenant string) (RetrainReport, error)
}

// Chaos is the fault-injection hook behind the opt-in /inject drill
// endpoint: it flips bits of the live serving memory under the given
// per-bit probability and reports how many flipped. Implementations
// decide which memory (the packed-binary planes, typically) and must be
// safe against concurrent serving.
type Chaos interface {
	InjectWords(pb float64) (int, error)
}

// Reliability is the runtime-integrity hook the HTTP layer can expose:
// the /reliability endpoint and the healthz reliability block read its
// status, so operators see scrub results, quarantines, and the degraded
// flag next to the serving stats. internal/reliability provides the
// implementation; the interface lives here so the transport layer does
// not depend on it.
type Reliability interface {
	// Status snapshots the monitor's health ledger and counters.
	Status() ReliabilityStatus
}

// LearnerHealth is one weak learner's entry in the reliability ledger.
// The quarantine is two-tier: "degraded" means specific dimension words
// are masked out of the learner's vote (MaskedWords of them, leaving
// HealthyFraction of its dimensions serving); "quarantined" means the
// whole vote is alpha-masked.
type LearnerHealth struct {
	State           string  `json:"state"`                      // "healthy", "degraded" (dimension-masked), or "quarantined"
	MaskedWords     int     `json:"masked_words,omitempty"`     // packed 64-bit words masked out of this learner
	HealthyFraction float64 `json:"healthy_fraction"`           // fraction of dimensions still voting (1 healthy, 0 quarantined)
	IntegrityFaults uint64  `json:"integrity_faults,omitempty"` // signature mismatches observed
	CanaryFaults    uint64  `json:"canary_faults,omitempty"`    // canary-accuracy collapses observed
	Repairs         uint64  `json:"repairs,omitempty"`          // successful restores
	CanaryBaseline  float64 `json:"canary_baseline,omitempty"`  // solo canary accuracy at signing
	CanaryLast      float64 `json:"canary_last,omitempty"`      // most recent solo canary accuracy
}

// ReliabilityStatus is a point-in-time snapshot of the reliability
// monitor: the per-learner health ledger plus subsystem counters.
type ReliabilityStatus struct {
	// Degraded is true while at least one learner is quarantined or
	// dimension-masked: the server answers from the remaining ensemble
	// (and intra-learner) redundancy.
	Degraded     bool            `json:"degraded"`
	Learners     int             `json:"learners"`
	SegmentWords int             `json:"segment_words"`         // signature/quarantine granularity in packed words
	Quarantined  []int           `json:"quarantined,omitempty"` // fully alpha-masked learner indexes
	DimMasked    []int           `json:"dim_masked,omitempty"`  // dimension-masked (still voting) learner indexes
	MaskedWords  int             `json:"masked_words"`          // total packed words masked across the ensemble
	Ledger       []LearnerHealth `json:"ledger,omitempty"`
	Scrubs       uint64          `json:"scrubs"`          // scrub passes completed
	Detections   uint64          `json:"detections"`      // corruption events detected
	Quarantines  uint64          `json:"quarantines"`     // learners quarantined (cumulative)
	Repairs      uint64          `json:"repairs"`         // learners repaired (cumulative)
	EncoderHeals uint64          `json:"encoder_heals"`   // learners named by encoder plane heals (cumulative)
	RepairFails  uint64          `json:"repair_failures"` // repair attempts that failed
	CanaryRows   int             `json:"canary_rows"`     // held-out canary set size (0 = integrity-only)
	LastScrubMS  float64         `json:"last_scrub_ms"`   // duration of the most recent scrub pass
	LastError    string          `json:"last_error,omitempty"`
}

// TrainerStatus is a point-in-time snapshot of trainer counters.
type TrainerStatus struct {
	Observed        uint64 `json:"observed"`             // samples ingested
	Updated         uint64 `json:"updated"`              // samples whose online update moved class memory
	Buffered        int    `json:"buffered"`             // samples currently buffered
	Retrains        uint64 `json:"retrains"`             // successful retrain+swap cycles
	RetrainFailures uint64 `json:"retrain_failures"`     // retrains that errored (refit/build/swap)
	LastError       string `json:"last_error,omitempty"` // most recent retrain error, if any
}

// HandlerConfig hardens and extends the HTTP layer.
type HandlerConfig struct {
	// MaxBodyBytes caps every request body; oversized bodies answer
	// 413 with bounded memory (http.MaxBytesReader). Zero selects the
	// 8 MiB default; negative disables the cap.
	MaxBodyBytes int64
	// MaxBatchRows caps the row count of /predict_batch and batched
	// /observe requests (400 beyond). Zero selects the 4096 default;
	// negative disables the cap.
	MaxBatchRows int
	// CheckpointDir is the allowlist root for /swap: checkpoint names
	// are resolved strictly inside it (rejecting absolute paths, path
	// traversal, and symlink escapes). Empty disables /swap entirely —
	// an unauthenticated POST must not read arbitrary filesystem paths.
	CheckpointDir string
	// Trainer enables /observe and /retrain when non-nil.
	Trainer Trainer
	// Tenants enables tenant-multiplexed serving when non-nil: requests
	// carrying a tenant — the X-Tenant header, or the /t/{tenant}/...
	// path form — resolve through the registry to the tenant's engine
	// view, and GET /tenants exposes the registry stats. Tenant
	// predictions ride the micro-batcher pinned to their resolved view,
	// so same-tenant (and base-passthrough) traffic coalesces into fused
	// engine batch calls; tenant /predict_batch runs one batch call on the
	// tenant engine — the caller already batched.
	Tenants *TenantRegistry
	// TenantTrainer routes tenant-scoped /observe and /retrain to
	// per-tenant isolation when non-nil. Requires Tenants.
	TenantTrainer TenantTrainer
	// Reliability enables /reliability and the healthz reliability block
	// when non-nil.
	Reliability Reliability
	// Chaos enables the POST /inject fault-injection drill endpoint
	// when non-nil — an opt-in for reliability exercises (smoke tests,
	// game days) that flips bits in the live model memory and lets an
	// operator watch the monitor detect, mask, and repair. Never enable
	// it on a production port without AuthToken: it is deliberately a
	// memory-corruption primitive.
	Chaos Chaos
	// AuthToken, when set, is required on every mutating endpoint
	// (/swap, /observe, /retrain, /inject) as "Authorization: Bearer <token>";
	// requests without it answer 401. The read-only predict and health
	// endpoints stay open. Unset leaves the mutating endpoints gated
	// only by their opt-in config (CheckpointDir, Trainer) — fine on a
	// trusted network, not on an exposed port.
	AuthToken string
}

// DefaultMaxBodyBytes and DefaultMaxBatchRows are the request caps used
// when HandlerConfig leaves them zero.
const (
	DefaultMaxBodyBytes = 8 << 20
	DefaultMaxBatchRows = 4096
)

func (c HandlerConfig) withDefaults() HandlerConfig {
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if c.MaxBatchRows == 0 {
		c.MaxBatchRows = DefaultMaxBatchRows
	}
	return c
}

// Handler exposes a Server over HTTP/JSON with the default hardening
// config: body and batch caps at their defaults, /swap disabled (no
// checkpoint dir), no trainer. Use NewHandler to enable them.
func Handler(s *Server) http.Handler { return NewHandler(s, HandlerConfig{}) }

// NewHandler exposes a Server (and optionally a Trainer) over HTTP/JSON:
//
//	POST /predict       {"features":[...]}            -> {"label":n}
//	POST /predict_batch {"rows":[[...],...]}          -> {"labels":[...]}
//	GET  /healthz                                     -> serving + trainer + reliability stats
//	GET  /metrics                                     -> Prometheus text exposition of the same stats
//	GET  /reliability                                 -> reliability ledger + counters
//	POST /swap          {"checkpoint":"name","backend":"float|binary"} -> swap report
//	POST /observe       {"features":[...],"label":n}  -> ingestion report
//	                    or {"rows":[[...],...],"labels":[...]}
//	POST /retrain       {}                            -> RetrainReport
//
// /predict rides the micro-batcher, so concurrent HTTP clients coalesce
// into engine batch calls; /predict_batch goes straight to the engine.
// /swap resolves the named checkpoint strictly inside the configured
// checkpoint dir, builds (and for the binary backend quantizes) the new
// engine off the serving path, then installs it atomically — in-flight
// batches finish on the old model. /observe feeds the trainer's sample
// buffer (and its incremental model updates); /retrain refits over the
// buffer and swaps the result in.
func NewHandler(s *Server, cfg HandlerConfig) http.Handler {
	h := &handler{s: s, cfg: cfg.withDefaults()}
	mux := http.NewServeMux()
	mux.HandleFunc("/predict", h.predict)
	mux.HandleFunc("/predict_batch", h.predictBatch)
	mux.HandleFunc("/healthz", h.healthz)
	mux.HandleFunc("/metrics", h.metrics)
	mux.HandleFunc("/reliability", h.reliability)
	mux.HandleFunc("/swap", h.swap)
	mux.HandleFunc("/observe", h.observe)
	mux.HandleFunc("/retrain", h.retrain)
	mux.HandleFunc("/inject", h.inject)
	mux.HandleFunc("/tenants", h.tenants)
	mux.HandleFunc("/t/", h.tenantRoute)
	mux.HandleFunc("/trace", h.trace)
	mux.HandleFunc("/events", h.events)
	return mux
}

type handler struct {
	s   *Server
	cfg HandlerConfig
}

// tenantOf extracts the request's tenant ID (the X-Tenant header; the
// /t/{tenant}/... path form is rewritten into the header by tenantRoute).
// Empty means the shared base model.
func tenantOf(r *http.Request) string { return r.Header.Get("X-Tenant") }

// tenantEngine resolves the request's tenant to its serving engine,
// answering the HTTP error itself (and returning nil) on failure.
func (h *handler) tenantEngine(w http.ResponseWriter, tenant string) *infer.Engine {
	if h.cfg.Tenants == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("serve: no tenant registry configured"))
		return nil
	}
	eng, err := h.cfg.Tenants.Resolve(tenant)
	if err != nil {
		httpError(w, predictStatus(err), err)
		return nil
	}
	return eng
}

// tenantRoute dispatches the /t/{tenant}/{op} path form: the tenant is
// validated, folded into the X-Tenant header (a conflicting header is a
// client bug, answered 400), and the op handled by the same handlers the
// header form uses.
func (h *handler) tenantRoute(w http.ResponseWriter, r *http.Request) {
	if h.cfg.Tenants == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("serve: no tenant registry configured"))
		return
	}
	tenant, op, ok := strings.Cut(strings.TrimPrefix(r.URL.Path, "/t/"), "/")
	if !ok || op == "" {
		httpError(w, http.StatusNotFound, fmt.Errorf("serve: tenant routes are /t/{tenant}/{predict,predict_batch,observe,retrain}"))
		return
	}
	if err := ValidTenantID(tenant); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if hdr := tenantOf(r); hdr != "" && hdr != tenant {
		httpError(w, http.StatusBadRequest,
			fmt.Errorf("%w: X-Tenant header %q conflicts with path tenant %q", ErrBadInput, hdr, tenant))
		return
	}
	r2 := r.Clone(r.Context())
	r2.Header.Set("X-Tenant", tenant)
	switch op {
	case "predict":
		h.predict(w, r2)
	case "predict_batch":
		h.predictBatch(w, r2)
	case "observe":
		h.observe(w, r2)
	case "retrain":
		h.retrain(w, r2)
	default:
		httpError(w, http.StatusNotFound, fmt.Errorf("serve: unknown tenant op %q", op))
	}
}

// tenants answers the tenant-registry stats: residents, cache traffic,
// per-tenant resident bytes, and the base identity tenant views are
// pinned to.
func (h *handler) tenants(w http.ResponseWriter, r *http.Request) {
	if !wantMethod(w, r, http.MethodGet) {
		return
	}
	if h.cfg.Tenants == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("serve: no tenant registry configured"))
		return
	}
	writeJSON(w, h.cfg.Tenants.Stats())
}

func (h *handler) predict(w http.ResponseWriter, r *http.Request) {
	if !wantMethod(w, r, http.MethodPost) {
		return
	}
	// Admission starts at body decode; the span records it only for
	// sampled requests, but the clock read is deferred until we know
	// observability is wired at all.
	o := h.s.Obs()
	var t0 time.Time
	if o != nil {
		t0 = time.Now()
	}
	var req struct {
		Features []float64 `json:"features"`
	}
	if !h.decodeJSON(w, r, &req) {
		return
	}
	// Tenant requests resolve to their pinned engine view and ride the
	// same micro-batcher as base traffic: requests pinned to the same
	// view fuse into one engine batch call per flush (tenant-aware
	// coalescing), instead of degrading to per-request engine calls.
	var eng *infer.Engine
	if tenant := tenantOf(r); tenant != "" {
		if eng = h.tenantEngine(w, tenant); eng == nil {
			return
		}
	}
	// Trace sampling covers the micro-batcher path — tenant predicts
	// included: every request mints a correlation ID, and every Nth
	// carries a full span through admission → queue → engine stages →
	// delivery.
	var sp *obs.Span
	if o != nil {
		corr, sampled := o.Tracer.Admit()
		if sampled {
			sp = &obs.Span{Corr: corr, Start: t0}
			sp.Stamp(obs.StageAdmission, time.Since(t0).Nanoseconds())
		}
	}
	label, err := h.s.PredictOnSpan(eng, req.Features, sp)
	if sp != nil {
		sp.TotalNS = time.Since(t0).Nanoseconds()
		if err != nil {
			sp.Err = err.Error()
		}
		o.Tracer.Record(sp)
	}
	if err != nil {
		httpError(w, predictStatus(err), err)
		return
	}
	writeJSON(w, map[string]int{"label": label})
}

func (h *handler) predictBatch(w http.ResponseWriter, r *http.Request) {
	if !wantMethod(w, r, http.MethodPost) {
		return
	}
	var req struct {
		Rows [][]float64 `json:"rows"`
	}
	if !h.decodeJSON(w, r, &req) {
		return
	}
	if !h.checkRowCap(w, len(req.Rows)) {
		return
	}
	tenant := tenantOf(r)
	var eng *infer.Engine
	if tenant != "" {
		if eng = h.tenantEngine(w, tenant); eng == nil {
			return
		}
	}
	labels, err := h.s.PredictBatchOn(eng, req.Rows)
	if err != nil {
		httpError(w, predictStatus(err), err)
		return
	}
	writeJSON(w, map[string][]int{"labels": labels})
}

func (h *handler) healthz(w http.ResponseWriter, r *http.Request) {
	if !wantMethod(w, r, http.MethodGet) {
		return
	}
	st := h.s.Stats()
	resp := map[string]any{
		"status":      "ok",
		"backend":     st.Backend,
		"input_dim":   h.s.Engine().InputDim(),
		"served":      st.Served,
		"batches":     st.Batches,
		"mean_batch":  st.MeanBatch,
		"swaps":       st.Swaps,
		"queue_depth": st.QueueDepth,
		// Batcher internals: how deep the coalescing queue runs and
		// which exit the collect loop takes — straggler-timer fires
		// mean short batches linger the full MaxWait, lone-caller
		// fast-path hits mean single requests skip the wait entirely.
		"batcher": map[string]any{
			"queue_depth":     st.QueueDepth,
			"straggler_fires": st.StragglerFires,
			"lone_fast_path":  st.LoneFastPath,
			"flushes":         st.Flushes,
			"tenant_rows":     st.TenantRows,
			"coalesced_rows":  st.CoalescedRows,
		},
		// Model identity: backend + projection + serving-engine
		// generation, so an operator can confirm a swap / quarantine /
		// repair landed (the version advances on every installed engine)
		// and see which encoder representation is live.
		"model": map[string]any{
			"backend":             st.Backend,
			"version":             st.ModelVersion,
			"projection":          st.Projection,
			"encoder_state_bytes": st.EncoderStateBytes,
		},
	}
	if h.cfg.Trainer != nil {
		resp["trainer"] = h.cfg.Trainer.Status()
	}
	if h.cfg.Tenants != nil {
		tst := h.cfg.Tenants.Stats()
		resp["tenants"] = map[string]any{
			"residents":      tst.Residents,
			"resident_bytes": tst.ResidentBytes,
			"shards":         tst.Shards,
			"hits":           tst.Hits,
			"misses":         tst.Misses,
			"cold_loads":     tst.ColdLoads,
			"compactions":    tst.Compactions,
			"base_hash":      tst.BaseHash,
		}
	}
	if h.cfg.Reliability != nil {
		rst := h.cfg.Reliability.Status()
		if rst.Degraded {
			resp["status"] = "degraded"
		}
		resp["reliability"] = map[string]any{
			"degraded":     rst.Degraded,
			"quarantined":  len(rst.Quarantined),
			"dim_masked":   len(rst.DimMasked),
			"masked_words": rst.MaskedWords,
			"scrubs":       rst.Scrubs,
			"detections":   rst.Detections,
			"repairs":      rst.Repairs,
		}
	}
	writeJSON(w, resp)
}

// reliability answers the full reliability-monitor status: the
// per-learner health ledger plus scrub/quarantine/repair counters —
// the healthz block is the summary, this is the detail view.
func (h *handler) reliability(w http.ResponseWriter, r *http.Request) {
	if !wantMethod(w, r, http.MethodGet) {
		return
	}
	if h.cfg.Reliability == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("serve: no reliability monitor configured"))
		return
	}
	writeJSON(w, h.cfg.Reliability.Status())
}

func (h *handler) swap(w http.ResponseWriter, r *http.Request) {
	if !wantMethod(w, r, http.MethodPost) || !h.authorized(w, r) {
		return
	}
	if h.cfg.CheckpointDir == "" {
		httpError(w, http.StatusForbidden,
			fmt.Errorf("serve: /swap disabled: no checkpoint dir configured"))
		return
	}
	var req struct {
		Checkpoint string `json:"checkpoint"`
		Backend    string `json:"backend"`
	}
	if !h.decodeJSON(w, r, &req) {
		return
	}
	path, err := resolveCheckpoint(h.cfg.CheckpointDir, req.Checkpoint)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	// Checkpoint load + quantization can legitimately outlive the
	// server-wide WriteTimeout at paper scale; lift the deadline for
	// this response so the connection is not torn down mid-handler
	// while the swap completes anyway.
	liftWriteDeadline(w)
	eng, err := LoadEngine(path, req.Backend)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	// With a trainer active the swap must go through it, so the trainer
	// tracks the new model and later retrains refit the operator's
	// checkpoint instead of silently reverting it.
	if h.cfg.Trainer != nil {
		if err := h.cfg.Trainer.Adopt(eng); err != nil {
			httpError(w, predictStatus(err), err)
			return
		}
	} else if err := h.s.Swap(eng); err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, map[string]string{"status": "swapped", "backend": eng.Backend().String()})
}

func (h *handler) observe(w http.ResponseWriter, r *http.Request) {
	if !wantMethod(w, r, http.MethodPost) || !h.authorized(w, r) {
		return
	}
	tenant := tenantOf(r)
	if tenant == "" && h.cfg.Trainer == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("serve: no trainer configured"))
		return
	}
	if tenant != "" && h.cfg.TenantTrainer == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("serve: no tenant trainer configured"))
		return
	}
	var req struct {
		Features []float64   `json:"features"`
		Label    *int        `json:"label"`
		Rows     [][]float64 `json:"rows"`
		Labels   []int       `json:"labels"`
	}
	if !h.decodeJSON(w, r, &req) {
		return
	}
	if req.Features != nil && req.Rows != nil {
		// An ambiguous payload would silently drop whichever half the
		// switch below ignored — surface the client bug instead.
		httpError(w, http.StatusBadRequest,
			fmt.Errorf("%w: observe takes features+label or rows+labels, not both", ErrBadInput))
		return
	}
	// Tenant observations land in the tenant's private buffer only;
	// base observations feed the shared trainer (and its online updates).
	observe := func(x []float64, label int) error { return h.cfg.Trainer.Observe(x, label) }
	observeBatch := func(X [][]float64, y []int) error { return h.cfg.Trainer.ObserveBatch(X, y) }
	if tenant != "" {
		observe = func(x []float64, label int) error { return h.cfg.TenantTrainer.ObserveTenant(tenant, x, label) }
		observeBatch = func(X [][]float64, y []int) error { return h.cfg.TenantTrainer.ObserveTenantBatch(tenant, X, y) }
	}
	accepted := 0
	switch {
	case req.Features != nil:
		if req.Label == nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("%w: observe needs a label", ErrBadInput))
			return
		}
		if err := observe(req.Features, *req.Label); err != nil {
			httpError(w, predictStatus(err), err)
			return
		}
		accepted = 1
	case req.Rows != nil:
		if !h.checkRowCap(w, len(req.Rows)) {
			return
		}
		// All-or-nothing: a bad row mid-batch must not leave half the
		// batch buffered (and half the online updates applied) behind a
		// 400 — the client's natural retry would double-ingest the rest.
		if err := observeBatch(req.Rows, req.Labels); err != nil {
			httpError(w, predictStatus(err), err)
			return
		}
		accepted = len(req.Rows)
	default:
		httpError(w, http.StatusBadRequest,
			fmt.Errorf("%w: observe needs features+label or rows+labels", ErrBadInput))
		return
	}
	resp := map[string]any{
		"status":   "ok",
		"accepted": accepted,
	}
	if tenant != "" {
		resp["tenant"] = tenant
	} else {
		resp["trainer"] = h.cfg.Trainer.Status()
	}
	writeJSON(w, resp)
}

func (h *handler) retrain(w http.ResponseWriter, r *http.Request) {
	if !wantMethod(w, r, http.MethodPost) || !h.authorized(w, r) {
		return
	}
	tenant := tenantOf(r)
	if tenant == "" && h.cfg.Trainer == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("serve: no trainer configured"))
		return
	}
	if tenant != "" && h.cfg.TenantTrainer == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("serve: no tenant trainer configured"))
		return
	}
	// A full refit over the buffer can legitimately outlive the
	// server-wide WriteTimeout (minutes at paper scale); a torn-down
	// connection would report a network error for a retrain that
	// succeeds anyway, inviting a duplicate retry behind the retrain
	// lock. Lift the deadline for this response only.
	liftWriteDeadline(w)
	var (
		report RetrainReport
		err    error
	)
	if tenant != "" {
		// Tenant refits touch only that tenant's delta: the shared base and
		// every other tenant's view are unchanged by construction.
		report, err = h.cfg.TenantTrainer.RetrainTenant(tenant)
	} else {
		report, err = h.cfg.Trainer.Retrain()
	}
	if err != nil {
		code := predictStatus(err)
		if errors.Is(err, ErrBusy) {
			code = http.StatusConflict
		}
		httpError(w, code, err)
		return
	}
	writeJSON(w, report)
}

// inject runs one opt-in fault-injection drill: flip bits of the live
// model memory at the requested per-bit probability and report the flip
// count. 404 unless a Chaos hook is configured (it never exists unless
// the operator asked for it), auth-gated like every mutating endpoint.
func (h *handler) inject(w http.ResponseWriter, r *http.Request) {
	if !wantMethod(w, r, http.MethodPost) || !h.authorized(w, r) {
		return
	}
	if h.cfg.Chaos == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("serve: no chaos injection configured"))
		return
	}
	var req struct {
		Pb float64 `json:"pb"`
	}
	if !h.decodeJSON(w, r, &req) {
		return
	}
	if req.Pb <= 0 || req.Pb > 1 {
		httpError(w, http.StatusBadRequest,
			fmt.Errorf("%w: per-bit flip probability %v outside (0,1]", ErrBadInput, req.Pb))
		return
	}
	flips, err := h.cfg.Chaos.InjectWords(req.Pb)
	if err != nil {
		httpError(w, predictStatus(err), err)
		return
	}
	if o := h.s.Obs(); o != nil {
		o.Journal.Append(obs.Event{
			Type:   obs.EvInject,
			Detail: fmt.Sprintf("pb=%g flips=%d", req.Pb, flips),
		})
	}
	writeJSON(w, map[string]int{"flips": flips})
}

// authorized enforces the bearer token on mutating endpoints when one
// is configured, answering 401 otherwise. Comparison is constant-time.
func (h *handler) authorized(w http.ResponseWriter, r *http.Request) bool {
	if h.cfg.AuthToken == "" {
		return true
	}
	got, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
	if !ok || subtle.ConstantTimeCompare([]byte(got), []byte(h.cfg.AuthToken)) != 1 {
		httpError(w, http.StatusUnauthorized, fmt.Errorf("serve: %s requires a valid bearer token", r.URL.Path))
		return false
	}
	return true
}

// liftWriteDeadline removes the per-request write deadline the server's
// WriteTimeout armed, for endpoints whose handlers legitimately run
// longer than a predict (retrain, checkpoint load + quantization). A
// transport without deadline support just keeps its timeout.
func liftWriteDeadline(w http.ResponseWriter) {
	_ = http.NewResponseController(w).SetWriteDeadline(time.Time{})
}

// checkRowCap enforces the batch row cap, answering 400 beyond it.
func (h *handler) checkRowCap(w http.ResponseWriter, rows int) bool {
	if h.cfg.MaxBatchRows > 0 && rows > h.cfg.MaxBatchRows {
		httpError(w, http.StatusBadRequest,
			fmt.Errorf("%w: %d rows exceeds the %d-row cap", ErrBadInput, rows, h.cfg.MaxBatchRows))
		return false
	}
	return true
}

// resolveCheckpoint maps a client-supplied checkpoint name into the
// allowlist root, rejecting everything that could read outside it:
// absolute paths, Windows-style drive/volume names, ".." traversal
// (filepath.IsLocal covers all three) and symlinks that point out of the
// root (EvalSymlinks on both sides). The resolved physical path is
// returned, so the subsequent open cannot be retargeted by the checked
// components.
func resolveCheckpoint(root, name string) (string, error) {
	if name == "" {
		return "", fmt.Errorf("serve: empty checkpoint name")
	}
	if !filepath.IsLocal(name) {
		return "", fmt.Errorf("serve: checkpoint %q escapes the checkpoint dir", name)
	}
	rootReal, err := filepath.EvalSymlinks(root)
	if err != nil {
		return "", fmt.Errorf("serve: checkpoint dir: %w", err)
	}
	real, err := filepath.EvalSymlinks(filepath.Join(root, name))
	if err != nil {
		return "", fmt.Errorf("serve: checkpoint %q: %w", name, err)
	}
	rel, err := filepath.Rel(rootReal, real)
	if err != nil || rel == ".." || strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
		return "", fmt.Errorf("serve: checkpoint %q escapes the checkpoint dir", name)
	}
	return real, nil
}

// LoadEngine builds a serving engine from a checkpoint file. backend
// selects the representation: "float" serves the float ensemble,
// "binary" / "packed-binary" serves a quantized engine — from a binary
// snapshot checkpoint directly (no re-quantization), or by quantizing a
// float checkpoint after loading. Everything here runs off the serving
// path; hand the result to Server.Swap.
func LoadEngine(path, backend string) (*infer.Engine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("serve: open checkpoint: %w", err)
	}
	defer f.Close()
	switch strings.ToLower(backend) {
	case "", "float":
		m, err := boosthd.Load(f)
		if err != nil {
			return nil, err
		}
		return infer.NewEngine(m), nil
	case "binary", "packed-binary":
		// Try the binary-snapshot format first, then fall back to
		// quantizing a float checkpoint. If neither format decodes,
		// report the binary loader's error — the caller asked for the
		// binary backend, and a corrupt snapshot must not be
		// misreported as a wrong-type float checkpoint.
		bm, berr := infer.LoadBinary(f)
		if berr == nil {
			return infer.NewEngineFromBinary(bm), nil
		}
		if _, err := f.Seek(0, 0); err != nil {
			return nil, fmt.Errorf("serve: rewind checkpoint: %w", err)
		}
		m, ferr := boosthd.Load(f)
		if ferr != nil {
			return nil, berr
		}
		return infer.NewBinaryEngine(m)
	default:
		return nil, fmt.Errorf("serve: unknown backend %q (want float or binary)", backend)
	}
}

// predictStatus maps a prediction error to its HTTP status: request
// validation failures are the client's fault, everything else is a
// server fault.
func predictStatus(err error) int {
	if errors.Is(err, ErrBadInput) {
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

// wantMethod enforces the endpoint's method, answering 405 otherwise.
func wantMethod(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method != method {
		httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("serve: %s requires %s", r.URL.Path, method))
		return false
	}
	return true
}

// decodeJSON parses the request body into dst under the body-size cap,
// answering 413 when the cap tripped and 400 on malformed JSON. The cap
// bounds server memory regardless of Content-Length honesty: the body is
// never buffered past MaxBodyBytes.
func (h *handler) decodeJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	body := r.Body
	if h.cfg.MaxBodyBytes > 0 {
		body = http.MaxBytesReader(w, r.Body, h.cfg.MaxBodyBytes)
	}
	if err := json.NewDecoder(body).Decode(dst); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("serve: request body exceeds %d bytes", tooBig.Limit))
			return false
		}
		httpError(w, http.StatusBadRequest, fmt.Errorf("serve: bad request body: %w", err))
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are gone; nothing more to do than note it.
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
