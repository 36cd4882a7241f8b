// Package serve is the production serving layer over infer.Engine: an
// adaptive micro-batcher that coalesces concurrent single-predict
// requests into the engine's fused batch pipeline, plus an atomically
// hot-swappable engine slot so a freshly loaded (and, off the serving
// path, freshly quantized) checkpoint can replace the live model without
// dropping a request.
//
// The batcher is adaptive in the sense that it never waits when there is
// nothing to wait for: a worker first drains whatever is already queued
// without arming a timer, and only if its batch is still short does it
// linger up to MaxWait for stragglers. Under heavy concurrency batches
// fill instantly and requests ride the batch kernels (blocked encoding,
// shared class-memory pins, per-worker scratch); under light load a lone
// request pays at most MaxWait of extra latency.
package serve

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"boosthd/internal/encoding"
	"boosthd/internal/infer"
	"boosthd/internal/obs"
)

// Config tunes the micro-batcher.
type Config struct {
	// MaxBatch is the most rows coalesced into one engine batch call.
	// Default 64.
	MaxBatch int
	// MaxWait bounds how long a short batch lingers for stragglers after
	// its first request. Zero selects the 200µs default — far below the
	// per-row encode cost, so the wait is only ever visible to an
	// otherwise idle server; negative means drain-only (never wait).
	MaxWait time.Duration
	// Workers is the number of concurrent batch executors. Default
	// GOMAXPROCS.
	Workers int
	// QueueCap bounds queued requests beyond the batches in flight;
	// Predict blocks (backpressure) when it is full. Default
	// MaxBatch * Workers.
	QueueCap int
}

// withDefaults fills unset knobs.
func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.MaxWait == 0 {
		c.MaxWait = 200 * time.Microsecond
	} else if c.MaxWait < 0 {
		c.MaxWait = 0
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueCap <= 0 {
		c.QueueCap = c.MaxBatch * c.Workers
	}
	return c
}

// request is one queued prediction; done receives exactly one result.
// eng pins the request to a resolved engine view (a tenant's composed
// engine); nil rides whatever engine is serving at flush time. enq is
// stamped at enqueue when observability is wired (zero otherwise) and
// span carries the caller's trace record for sampled requests — the
// worker fills its queue/batch stages before delivering the result, so
// the caller reads a complete span after done.
type request struct {
	x    []float64
	eng  *infer.Engine
	done chan result
	enq  time.Time
	span *obs.Span
}

type result struct {
	label int
	err   error
}

// Stats is a point-in-time snapshot of serving counters.
type Stats struct {
	Served     uint64  // predictions completed: batcher rows plus PredictBatchOn rows
	Batches    uint64  // engine batch calls issued
	MeanBatch  float64 // Served / Batches
	Swaps      uint64  // hot-swaps performed
	QueueDepth int     // requests queued at snapshot time
	Backend    string  // current engine backend
	// ModelVersion identifies the serving engine generation: 1 for the
	// engine the server started with, +1 per Swap. Operators compare it
	// across healthz polls to confirm a swap / quarantine / repair
	// actually landed on the serving path.
	ModelVersion uint64
	// EncoderStateBytes is the resident memory of the serving model's
	// encoder stack (projection matrix, phases, activation cache); O(1)
	// for the rematerialized projection. A swap to a differently encoded
	// model shows up here.
	EncoderStateBytes int
	// Projection names the serving encoder's projection mode (stored or
	// seeded), the axis the paper's memory/latency trade-off sweeps.
	Projection string
	// StragglerFires counts batches flushed because the MaxWait
	// straggler timer expired before the batch filled.
	StragglerFires uint64
	// LoneFastPath counts batches that skipped the straggler wait
	// entirely on the lone-caller fast path.
	LoneFastPath uint64
	// Flushes counts collect cycles: one flush issues one engine batch
	// call per distinct engine view among its queued requests, so
	// Batches/Flushes measures how much tenant diversity fragments the
	// coalescing (1.0 = every flush fused into a single call).
	Flushes uint64
	// TenantRows counts predictions that rode the batcher pinned to a
	// resolved tenant view (PredictOn with a non-nil engine).
	TenantRows uint64
	// CoalescedRows counts served rows that shared their engine batch
	// call with at least one other row — the traffic that actually
	// benefited from coalescing. CoalescedRows/Served is the
	// batch-coalescing hit rate.
	CoalescedRows uint64
}

// Server fronts a hot-swappable engine with the micro-batcher. All
// methods are safe for concurrent use.
type Server struct {
	cfg    Config
	engine atomic.Pointer[infer.Engine]
	reqs   chan *request

	mu     sync.RWMutex // guards closed against the Predict enqueue path
	closed bool
	wg     sync.WaitGroup

	served  atomic.Uint64
	batches atomic.Uint64
	swaps   atomic.Uint64

	stragglers atomic.Uint64 // MaxWait timer fires
	loneHits   atomic.Uint64 // lone-caller fast-path batches
	flushes    atomic.Uint64 // collect cycles flushed
	tenantRows atomic.Uint64 // rows served pinned to a tenant view
	coalesced  atomic.Uint64 // rows served in a group of >= 2

	// obs is the optional observability bundle; nil (never wired)
	// costs one atomic load and a branch per batch.
	obs atomic.Pointer[obs.Serving]
}

// ErrClosed is returned by predictions issued after Close.
var ErrClosed = fmt.Errorf("serve: server closed")

// ErrBadInput wraps request-validation failures (wrong feature width,
// non-finite or overflowing feature values), so transports can answer
// them as client errors instead of server faults.
var ErrBadInput = fmt.Errorf("serve: bad input")

// CheckRow validates one feature row at admission: its width against
// want, and its values against encoding.CheckFeatures. Failures wrap
// ErrBadInput. Predictions and observations check every row before it
// joins a micro-batch or touches class memory, so a bad row fails alone.
func CheckRow(x []float64, want int) error {
	if len(x) != want {
		return fmt.Errorf("%w: %d features, model expects %d", ErrBadInput, len(x), want)
	}
	if err := encoding.CheckFeatures(x); err != nil {
		return fmt.Errorf("%w: %v", ErrBadInput, err)
	}
	return nil
}

// ErrBusy is returned by a Trainer.Retrain that found another retrain
// already in flight; the transport answers 409 instead of parking an
// unbounded pile of deadline-free connections behind the retrain lock.
var ErrBusy = fmt.Errorf("serve: retrain already in flight")

// NewServer starts a server over eng with cfg's batching policy.
func NewServer(eng *infer.Engine, cfg Config) (*Server, error) {
	if eng == nil {
		return nil, fmt.Errorf("serve: nil engine")
	}
	cfg = cfg.withDefaults()
	s := &Server{cfg: cfg, reqs: make(chan *request, cfg.QueueCap)}
	s.engine.Store(eng)
	s.wg.Add(cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		go s.worker()
	}
	return s, nil
}

// Config returns the resolved batching policy.
func (s *Server) Config() Config { return s.cfg }

// SetObs wires the observability bundle: request/batch histograms,
// per-backend stage timing, trace sampling, and engine-swap journal
// events. Safe to call at any time; nil detaches.
func (s *Server) SetObs(o *obs.Serving) { s.obs.Store(o) }

// Obs returns the wired observability bundle, or nil.
func (s *Server) Obs() *obs.Serving { return s.obs.Load() }

// Engine returns the engine currently serving.
func (s *Server) Engine() *infer.Engine { return s.engine.Load() }

// Swap atomically installs eng as the serving engine. Batches already
// in flight finish on the engine they loaded; every later batch scores
// on eng. Build the engine (load + quantize) before calling, so the
// expensive work never happens on the serving path.
func (s *Server) Swap(eng *infer.Engine) error {
	if eng == nil {
		return fmt.Errorf("serve: swap: nil engine")
	}
	s.engine.Store(eng)
	s.swaps.Add(1)
	s.noteSwap(eng)
	return nil
}

// SwapIf installs eng only if old is still the serving engine,
// reporting whether the install happened. Controllers that derived eng
// from a snapshot of the serving state (the reliability monitor's
// masked views above all) use it so a swap that landed in between — an
// operator checkpoint, a trainer retrain — is never silently reverted
// by a stale rebuild; the caller re-reads Engine() and reconciles
// instead.
func (s *Server) SwapIf(old, eng *infer.Engine) (bool, error) {
	if eng == nil {
		return false, fmt.Errorf("serve: swap: nil engine")
	}
	if !s.engine.CompareAndSwap(old, eng) {
		return false, nil
	}
	s.swaps.Add(1)
	s.noteSwap(eng)
	return true, nil
}

// noteSwap journals an engine install. The journal mutex is a leaf, so
// this is safe from any swap caller (operator, trainer, monitor).
func (s *Server) noteSwap(eng *infer.Engine) {
	if o := s.obs.Load(); o != nil {
		o.Journal.Append(obs.Event{
			Type:    obs.EvSwap,
			Version: s.swaps.Load() + 1,
			Detail:  eng.Backend().String(),
		})
	}
}

// ModelVersion returns the serving engine generation: 1 for the engine
// the server started with, +1 per swap (see Stats).
func (s *Server) ModelVersion() uint64 { return s.swaps.Load() + 1 }

// Predict classifies one feature vector through the micro-batcher: the
// request is coalesced with concurrent callers into one engine batch
// call. Blocks until the result is available (or the queue drains after
// Close, which still serves everything already accepted). The feature
// width is validated before enqueueing — a malformed request must fail
// alone, not poison the whole batch it would have coalesced into (the
// engine rejects mixed-width batches wholesale).
func (s *Server) Predict(x []float64) (int, error) {
	return s.PredictSpan(x, nil)
}

// PredictSpan is Predict carrying a trace span: when sp is non-nil
// (the request was sampled at admission) the batcher fills its queue,
// encode, score, and aggregate stages plus batch attribution before
// the result is delivered, so the caller owns a complete span
// afterwards. Unsampled requests pass nil and pay nothing beyond the
// shared batch instrumentation.
func (s *Server) PredictSpan(x []float64, sp *obs.Span) (int, error) {
	return s.PredictOnSpan(nil, x, sp)
}

// PredictOn classifies one feature vector on a pinned engine view —
// a tenant's composed engine from TenantRegistry.Resolve — through the
// micro-batcher: requests pinned to the same view coalesce into one
// fused engine batch call per flush, so same-tenant traffic (and tenant
// base-passthrough traffic, which pins the shared base engine) rides
// the batch kernels instead of degrading to per-request calls. A nil
// eng rides the current serving engine, same as Predict.
func (s *Server) PredictOn(eng *infer.Engine, x []float64) (int, error) {
	return s.PredictOnSpan(eng, x, nil)
}

// PredictOnSpan is PredictOn carrying a trace span (see PredictSpan).
func (s *Server) PredictOnSpan(eng *infer.Engine, x []float64, sp *obs.Span) (int, error) {
	dimEng := eng
	if dimEng == nil {
		dimEng = s.engine.Load()
	}
	if err := CheckRow(x, dimEng.InputDim()); err != nil {
		return 0, err
	}
	req := &request{x: x, eng: eng, done: make(chan result, 1), span: sp}
	o := s.obs.Load()
	if o != nil {
		req.enq = time.Now()
	}
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return 0, ErrClosed
	}
	s.reqs <- req
	s.mu.RUnlock()
	res := <-req.done
	if o != nil && !req.enq.IsZero() {
		o.ReqLatency.Observe(uint64(time.Since(req.enq).Nanoseconds()))
	}
	return res.label, res.err
}

// PredictBatch classifies an already-batched request on the current
// serving engine (see PredictBatchOn).
func (s *Server) PredictBatch(X [][]float64) ([]int, error) {
	return s.PredictBatchOn(nil, X)
}

// PredictBatchOn classifies an already-batched request directly on a
// pinned engine view — a tenant's composed engine — bypassing the
// coalescing queue: the caller has done the batching. A nil eng means
// the current serving engine, as in PredictOn. Every row is checked
// (CheckRow) before any is encoded. Base and tenant batches alike count
// toward Served and Batches and feed the batch, encode and score
// histograms.
func (s *Server) PredictBatchOn(eng *infer.Engine, X [][]float64) ([]int, error) {
	if eng == nil {
		eng = s.engine.Load()
	}
	for i, row := range X {
		if err := CheckRow(row, eng.InputDim()); err != nil {
			return nil, fmt.Errorf("row %d: %w", i, err)
		}
	}
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return nil, ErrClosed
	}
	s.mu.RUnlock()
	o := s.obs.Load()
	if o == nil {
		preds, err := eng.PredictBatch(X)
		if err == nil {
			s.served.Add(uint64(len(X)))
			s.batches.Add(1)
		}
		return preds, err
	}
	var st obs.StageTimes
	preds, err := eng.PredictBatchStaged(X, &st)
	if err == nil {
		s.served.Add(uint64(len(X)))
		s.batches.Add(1)
	}
	o.BatchSize.Observe(uint64(len(X)))
	encNS, scoNS := st.EncodeNS.Load(), st.ScoreNS.Load()
	o.EncodeTime.Observe(uint64(encNS))
	o.ScoreTime.Observe(uint64(scoNS))
	var ns [obs.NumStages]int64
	ns[obs.StageEncode], ns[obs.StageScore] = encNS, scoNS
	o.Stages.Record(eng.Backend().String(), len(X), &ns)
	return preds, err
}

// Stats snapshots the serving counters.
func (s *Server) Stats() Stats {
	served := s.served.Load()
	batches := s.batches.Load()
	mean := 0.0
	if batches > 0 {
		mean = float64(served) / float64(batches)
	}
	swaps := s.swaps.Load()
	eng := s.engine.Load()
	m := eng.Model()
	return Stats{
		Served:            served,
		Batches:           batches,
		MeanBatch:         mean,
		Swaps:             swaps,
		QueueDepth:        len(s.reqs),
		Backend:           eng.Backend().String(),
		ModelVersion:      swaps + 1,
		EncoderStateBytes: m.EncoderStateBytes(),
		Projection:        m.Cfg.Projection.String(),
		StragglerFires:    s.stragglers.Load(),
		LoneFastPath:      s.loneHits.Load(),
		Flushes:           s.flushes.Load(),
		TenantRows:        s.tenantRows.Load(),
		CoalescedRows:     s.coalesced.Load(),
	}
}

// Close drains the server: new predictions fail with ErrClosed, every
// request already accepted is still served, and Close returns once the
// workers exit. Safe to call more than once.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	s.mu.Unlock()
	// Every Predict that passed the closed check has finished its send
	// (the send happens under the read lock), so closing the channel
	// cannot race an enqueue; workers drain the buffered requests before
	// observing the close.
	close(s.reqs)
	s.wg.Wait()
}

// collect assembles one batch: it blocks for the first request, drains
// whatever else is already queued, and only if the batch is still short
// arms the MaxWait timer for stragglers. prev is the worker's previous
// batch size: when both it and the fast drain say the server is serving
// a lone caller, the straggler wait is skipped entirely, so a
// low-traffic server answers at direct-call latency instead of taxing
// every request MaxWait. Returns the batch and whether the queue is
// still open.
func (s *Server) collect(pending []*request, prev int) ([]*request, bool) {
	req, ok := <-s.reqs
	if !ok {
		return pending, false
	}
	pending = append(pending, req)
	for len(pending) < s.cfg.MaxBatch {
		select {
		case r, ok := <-s.reqs:
			if !ok {
				return pending, false
			}
			pending = append(pending, r)
			continue
		default:
		}
		break
	}
	if len(pending) >= s.cfg.MaxBatch || s.cfg.MaxWait <= 0 {
		return pending, true
	}
	if len(pending) == 1 && prev <= 1 {
		// Looks like a lone caller — but don't trust one empty drain:
		// on a saturated machine the channel handoff reschedules this
		// worker ahead of callers that are runnable but have not
		// enqueued yet, and skipping the wait here would lock serving
		// into one-row batches. Yield once so those callers run, then
		// re-drain; only if the queue is still empty is the caller
		// truly alone, and the batch goes out with zero added latency.
		runtime.Gosched()
		for len(pending) < s.cfg.MaxBatch {
			select {
			case r, ok := <-s.reqs:
				if !ok {
					return pending, false
				}
				pending = append(pending, r)
				continue
			default:
			}
			break
		}
		if len(pending) == 1 {
			s.loneHits.Add(1)
			return pending, true
		}
		if len(pending) >= s.cfg.MaxBatch {
			return pending, true
		}
	}
	timer := time.NewTimer(s.cfg.MaxWait)
	defer timer.Stop()
	for len(pending) < s.cfg.MaxBatch {
		select {
		case r, ok := <-s.reqs:
			if !ok {
				return pending, false
			}
			pending = append(pending, r)
		case <-timer.C:
			s.stragglers.Add(1)
			return pending, true
		}
	}
	return pending, true
}

// executeObserved is the worker's batch execution with observability
// wired: batch wait/size and engine stage histograms, cumulative
// per-backend stage accounting, a batch ID per coalesced flush, and
// span stages for sampled requests. Spans are written before the
// worker delivers results, so the caller side never races the fill.
func (s *Server) executeObserved(o *obs.Serving, eng *infer.Engine, pending []*request, rows [][]float64) ([]int, error) {
	dispatch := time.Now()
	batchID := o.Tracer.NextBatch()
	if !pending[0].enq.IsZero() {
		o.BatchWait.Observe(uint64(dispatch.Sub(pending[0].enq).Nanoseconds()))
	}
	o.BatchSize.Observe(uint64(len(rows)))
	var st obs.StageTimes
	preds, err := eng.PredictBatchStaged(rows, &st)
	done := time.Now()
	encNS, scoNS := st.EncodeNS.Load(), st.ScoreNS.Load()
	o.EncodeTime.Observe(uint64(encNS))
	o.ScoreTime.Observe(uint64(scoNS))
	backend := eng.Backend().String()
	for _, r := range pending {
		sp := r.span
		if sp == nil {
			continue
		}
		sp.Batch = batchID
		sp.Backend = backend
		sp.BatchSize = len(rows)
		if !r.enq.IsZero() {
			sp.Stamp(obs.StageQueue, dispatch.Sub(r.enq).Nanoseconds())
		}
		sp.Stamp(obs.StageEncode, encNS)
		sp.Stamp(obs.StageScore, scoNS)
		sp.Stamp(obs.StageAggregate, time.Since(done).Nanoseconds())
	}
	var ns [obs.NumStages]int64
	ns[obs.StageEncode], ns[obs.StageScore] = encNS, scoNS
	ns[obs.StageAggregate] = time.Since(done).Nanoseconds()
	o.Stages.Record(backend, len(rows), &ns)
	return preds, err
}

// engGroup is one engine's slice of a flush: the requests pinned to (or
// defaulting to) the same engine view, fused into one batch call.
type engGroup struct {
	eng  *infer.Engine
	reqs []*request
}

// groupByEngine splits a flush's pending requests by engine view,
// reusing groups' backing storage across flushes. Unpinned requests
// resolve to def (the serving engine loaded once per flush), so base
// traffic and tenant base-passthrough traffic land in the same group.
// The scan over existing groups is linear: a flush rarely spans more
// than a handful of distinct tenant views, and MaxBatch bounds it.
func groupByEngine(groups []engGroup, pending []*request, def *infer.Engine, maxBatch int) []engGroup {
	groups = groups[:0]
	for _, r := range pending {
		eng := r.eng
		if eng == nil {
			eng = def
		}
		gi := -1
		for i := range groups {
			if groups[i].eng == eng {
				gi = i
				break
			}
		}
		if gi < 0 {
			if len(groups) < cap(groups) {
				groups = groups[:len(groups)+1]
				gi = len(groups) - 1
				groups[gi].eng = eng
				groups[gi].reqs = groups[gi].reqs[:0]
			} else {
				groups = append(groups, engGroup{eng: eng, reqs: make([]*request, 0, maxBatch)})
				gi = len(groups) - 1
			}
		}
		groups[gi].reqs = append(groups[gi].reqs, r)
	}
	return groups
}

// worker runs the batch loop: collect, group the flush by engine view,
// execute one fused batch call per group, deliver. Engines are resolved
// at execution time (a swap between enqueue and flush serves unpinned
// requests on the new engine; pinned tenant views stay pinned — the
// registry re-resolves them on the next request). Request, row, and
// group slices are reused across flushes, so the batcher itself
// allocates only the per-request result channels its callers created.
// A failing group fails alone: its requests get the error, every other
// group in the flush still serves.
func (s *Server) worker() {
	defer s.wg.Done()
	pending := make([]*request, 0, s.cfg.MaxBatch)
	rows := make([][]float64, 0, s.cfg.MaxBatch)
	groups := make([]engGroup, 0, 4)
	prev := 0
	for {
		var open bool
		pending, open = s.collect(pending[:0], prev)
		prev = len(pending)
		if len(pending) > 0 {
			s.flushes.Add(1)
			def := s.engine.Load()
			groups = groupByEngine(groups, pending, def, s.cfg.MaxBatch)
			o := s.obs.Load()
			pinned := 0
			for _, r := range pending {
				if r.eng != nil {
					pinned++
				}
			}
			for gi := range groups {
				g := &groups[gi]
				rows = rows[:0]
				for _, r := range g.reqs {
					rows = append(rows, r.x)
				}
				var preds []int
				var err error
				if o == nil {
					preds, err = g.eng.PredictBatch(rows)
				} else {
					preds, err = s.executeObserved(o, g.eng, g.reqs, rows)
				}
				if err == nil && len(preds) != len(g.reqs) {
					err = fmt.Errorf("serve: engine returned %d predictions for %d rows", len(preds), len(g.reqs))
				}
				s.batches.Add(1)
				if err == nil {
					s.served.Add(uint64(len(g.reqs)))
					if len(g.reqs) > 1 {
						s.coalesced.Add(uint64(len(g.reqs)))
					}
				}
				for i, r := range g.reqs {
					if err != nil {
						r.done <- result{err: err}
					} else {
						r.done <- result{label: preds[i]}
					}
				}
			}
			if pinned > 0 {
				s.tenantRows.Add(uint64(pinned))
			}
		}
		if !open {
			return
		}
	}
}
