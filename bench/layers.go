package main

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"boosthd/internal/boosthd"
	"boosthd/internal/obs"
	"boosthd/internal/serve"
	"boosthd/internal/trainer"
)

// meanTimer accumulates durations from concurrent callers.
type meanTimer struct{ ns, n atomic.Int64 }

func (m *meanTimer) add(d time.Duration) {
	m.ns.Add(int64(d))
	m.n.Add(1)
}

// timed is a meanTimer's totals at one instant.
type timed struct{ ns, n int64 }

func (m *meanTimer) read() timed { return timed{m.ns.Load(), m.n.Load()} }

// meanUS is the mean duration in µs of the calls between two readings.
func meanUS(a, b timed) float64 { return ratio(float64(b.ns-a.ns), float64(b.n-a.n)) / 1e3 }

// probes are the traced run's timers around calls into the serving
// layers, taken from outside the program.
type probes struct {
	predict, observe meanTimer // HTTP handler time per /predict(_batch) and /observe
	load             meanTimer // DeltaStore.Load
	trainerObserve   meanTimer // Trainer.Observe
}

// timedHandler is the handler middleware: it times every predict and
// observe request from handler entry to handler return.
type timedHandler struct {
	next http.Handler
	p    *probes
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	h.next.ServeHTTP(w, r)
	d := time.Since(t0)
	switch p := r.URL.Path; {
	case strings.HasSuffix(p, "/predict"), strings.HasSuffix(p, "/predict_batch"):
		h.p.predict.add(d)
	case strings.HasSuffix(p, "/observe"):
		h.p.observe.add(d)
	}
}

// timedStore times the registry's cold-load reads. Embedding the
// *FileDeltaStore forwards Save and Compact, so the registry still sees
// a serve.DeltaCompactor and behaves exactly as it does unwrapped.
type timedStore struct {
	*serve.FileDeltaStore
	p *probes
}

func (s *timedStore) Load(tenant string, base *boosthd.Model, baseFP uint64) (*boosthd.Delta, error) {
	t0 := time.Now()
	d, err := s.FileDeltaStore.Load(tenant, base, baseFP)
	s.p.load.add(time.Since(t0))
	return d, err
}

// timedTrainer times Trainer.Observe; embedding forwards ObserveBatch,
// Retrain, Adopt and Status.
type timedTrainer struct {
	*trainer.Trainer
	p *probes
}

func (t *timedTrainer) Observe(x []float64, label int) error {
	t0 := time.Now()
	err := t.Trainer.Observe(x, label)
	t.p.trainerObserve.add(time.Since(t0))
	return err
}

// snapshot is every public counter the per-layer metrics difference.
type snapshot struct {
	server                  serve.Stats
	stageNS                 [obs.NumStages]int64 // summed over backends
	stageBatches, stageRows uint64
	cold                    obs.HistSnapshot
	tenants                 serve.TenantStats
	trainer                 serve.TrainerStatus
	predict, observe        timed
	load, trainerObserve    timed
	spans                   uint64
}

func (st *stack) snapshot() snapshot {
	s := snapshot{server: st.srv.Stats(), cold: st.ob.ColdLoad.Snapshot(), spans: st.ob.Tracer.Sampled()}
	for _, b := range st.ob.Stages.Snapshot() {
		for i, ns := range b.NS {
			s.stageNS[i] += ns
		}
		s.stageBatches += b.Batches
		s.stageRows += b.Rows
	}
	if st.reg != nil {
		s.tenants = st.reg.Stats()
	}
	if st.tr != nil {
		s.trainer = st.tr.Status()
	}
	if st.p != nil {
		s.predict, s.observe = st.p.predict.read(), st.p.observe.read()
		s.load, s.trainerObserve = st.p.load.read(), st.p.trainerObserve.read()
	}
	return s
}

// breakdown is the mean time, in µs, a predict request spends in each
// layer. client and handler are measured at the client and by the
// handler middleware; the stages come from the obs spans (single-row
// predicts) or the engine's stage accounting (/predict_batch).
type breakdown struct {
	client, handler                            float64
	admission, queue, encode, score, aggregate float64
	respond                                    float64
}

// transport is the loopback TCP and net/http time outside the handler.
func (b breakdown) transport() float64 { return b.client - b.handler }

// residual is the client time no layer accounts for.
func (b breakdown) residual() float64 {
	return b.client - b.transport() - b.admission - b.queue - b.encode - b.score - b.aggregate - b.respond
}

// layerMetrics computes the per-layer metrics of a traced window.
// plainRPS is the predict rate of the untraced half, for the tracing
// overhead.
func layerMetrics(w window, plainRPS float64) metricSet {
	a, z := w.before, w.after
	secs := w.elapsed.Seconds()
	bd := breakdown{client: meanLatencyUS(w.predict.lat), handler: meanUS(a.predict, z.predict)}
	stageBatches := float64(z.stageBatches - a.stageBatches)
	if len(w.spans) > 0 {
		var sum [obs.NumStages]int64
		var total int64
		for i := range w.spans {
			for s, ns := range w.spans[i].StageNS {
				sum[s] += ns
			}
			total += w.spans[i].TotalNS
		}
		n := float64(len(w.spans)) * 1e3
		bd.admission = float64(sum[obs.StageAdmission]) / n
		bd.queue = float64(sum[obs.StageQueue]) / n
		bd.encode = float64(sum[obs.StageEncode]) / n
		bd.score = float64(sum[obs.StageScore]) / n
		bd.aggregate = float64(sum[obs.StageAggregate]) / n
		bd.respond = bd.handler - float64(total)/n
	} else {
		// /predict_batch records no span; each request is one engine call.
		bd.encode = ratio(float64(z.stageNS[obs.StageEncode]-a.stageNS[obs.StageEncode]), stageBatches) / 1e3
		bd.score = ratio(float64(z.stageNS[obs.StageScore]-a.stageNS[obs.StageScore]), stageBatches) / 1e3
	}
	stageRows := float64(z.stageRows - a.stageRows)
	flushes := float64(z.server.Flushes - a.server.Flushes)
	hits := float64(z.tenants.Hits - a.tenants.Hits)
	misses := float64(z.tenants.Misses - a.tenants.Misses)
	coldLoad := ratio(float64(z.cold.Sum-a.cold.Sum), float64(z.cold.Count-a.cold.Count)) / 1e3
	storeLoad := meanUS(a.load, z.load)
	trainerObserve := meanUS(a.trainerObserve, z.trainerObserve)
	var retrain time.Duration
	for _, d := range w.script.retrains {
		retrain += d
	}

	var ms metricSet
	ms.add("client.total_us", "us", bd.client, fmt.Sprintf("n=%d", len(w.predict.lat)))
	ms.add("net.transport_us", "us", bd.transport(), "client - handler")
	ms.add("http.handler_us", "us", bd.handler, "")
	ms.add("http.admission_us", "us", bd.admission, "decode + tenant resolve (span)")
	ms.add("http.respond_us", "us", bd.respond, "handler - span total")
	ms.add("http.other_us", "us", bd.handler-bd.encode-bd.score, "handler - encode - score")
	ms.add("batcher.queue_us", "us", bd.queue, "")
	ms.add("batcher.rows_per_call", "rows", ratio(float64(z.server.Served-a.server.Served), float64(z.server.Batches-a.server.Batches)), "")
	ms.add("batcher.lone_frac", "fraction", ratio(float64(z.server.LoneFastPath-a.server.LoneFastPath), flushes), "of flushes")
	ms.add("batcher.straggler_frac", "fraction", ratio(float64(z.server.StragglerFires-a.server.StragglerFires), flushes), "of flushes")
	ms.add("batcher.coalesced_frac", "fraction", ratio(float64(z.server.CoalescedRows-a.server.CoalescedRows), float64(z.server.Served-a.server.Served)), "of rows")
	ms.add("infer.encode_us", "us", bd.encode, "per request")
	ms.add("infer.score_us", "us", bd.score, "per request")
	ms.add("infer.aggregate_us", "us", bd.aggregate, "per request")
	ms.add("infer.encode_us_per_row", "us", ratio(float64(z.stageNS[obs.StageEncode]-a.stageNS[obs.StageEncode]), stageRows)/1e3, "")
	ms.add("infer.score_us_per_row", "us", ratio(float64(z.stageNS[obs.StageScore]-a.stageNS[obs.StageScore]), stageRows)/1e3, "")
	ms.add("tenant.hit_rate", "fraction", ratio(hits, hits+misses), "")
	ms.add("tenant.cold_loads_per_s", "1/s", float64(z.tenants.ColdLoads-a.tenants.ColdLoads)/secs, "")
	ms.add("tenant.cold_load_us", "us", coldLoad, "store load + view build")
	ms.add("tenant.view_build_us", "us", coldLoad-storeLoad, "cold load - store load")
	ms.add("tenant.evictions_per_s", "1/s", float64(z.tenants.Evictions-a.tenants.Evictions)/secs, "")
	ms.add("tenant.resident_mb", "MiB", float64(z.tenants.ResidentBytes)/(1<<20), "at window end")
	ms.add("deltastore.load_us", "us", storeLoad, "")
	ms.add("trainer.observe_us", "us", trainerObserve, "")
	ms.add("http.observe_overhead_us", "us", meanUS(a.observe, z.observe)-trainerObserve, "/observe handler - trainer.observe_us")
	ms.add("trainer.updated_frac", "fraction", ratio(float64(z.trainer.Updated-a.trainer.Updated), float64(z.trainer.Observed-a.trainer.Observed)), "")
	ms.add("retrain_s", "s", ratio(retrain.Seconds(), float64(len(w.script.retrains))), fmt.Sprintf("mean of %d", len(w.script.retrains)))
	ms.add("residual_us", "us", bd.residual(), "")
	ms.add("residual_frac", "fraction", ratio(bd.residual(), bd.client), "of client.total_us")
	ms.add("trace_overhead_frac", "fraction", 1-ratio(rate(len(w.predict.lat), w.elapsed), plainRPS), "1 - traced / untraced predict_rps")
	return ms
}

// endToEnd computes the untraced run's metrics.
func endToEnd(setups []float64, w window, acc, rss float64, heldOut int) metricSet {
	lat := append([]time.Duration(nil), w.predict.lat...)
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	n := len(lat)
	var ms metricSet
	ms.add("setup_s", "s", median(setups), fmt.Sprintf("median of %d set-ups", len(setups)))
	ms.add("predict_rps", "req/s", rate(n, w.elapsed), fmt.Sprintf("%d requests in %.2f s", n, w.elapsed.Seconds()))
	ms.add("rows_per_s", "rows/s", rate(w.predict.rows, w.elapsed), "")
	ms.add("predict_p50_ms", "ms", ms64(percentile(lat, 50)), fmt.Sprintf("n=%d", n))
	ms.add("predict_p99_ms", "ms", ms64(percentile(lat, 99)), fmt.Sprintf("n=%d, %d beyond; highest percentile with %d beyond: p%g",
		n, beyond(n, 99), minBeyond, highestPercentile(n)))
	ms.add("accuracy", "fraction", acc, fmt.Sprintf("%d held-out rows via /predict_batch", heldOut))
	ms.add("peak_rss_mb", "MiB", rss, "VmHWM")
	return ms
}

func ms64(d time.Duration) float64 { return d.Seconds() * 1e3 }

func meanLatencyUS(lat []time.Duration) float64 {
	var sum time.Duration
	for _, d := range lat {
		sum += d
	}
	return ratio(float64(sum), float64(len(lat))) / 1e3
}

func rate(n int, d time.Duration) float64 { return ratio(float64(n), d.Seconds()) }

// ratio is a/b, or 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metricSet is an ordered set of named metrics with a note each.
type metricSet struct {
	names []string
	m     map[string]metric
	notes map[string]string
}

func (s *metricSet) add(name, unit string, v float64, note string) {
	if s.m == nil {
		s.m, s.notes = map[string]metric{}, map[string]string{}
	}
	s.names = append(s.names, name)
	s.m[name] = metric{Value: v, Unit: unit}
	s.notes[name] = note
}

func (s *metricSet) print(w io.Writer) {
	for _, n := range s.names {
		fmt.Fprintf(w, "  %-26s %14.4f %-9s %s\n", n, s.m[n].Value, s.m[n].Unit, s.notes[n])
	}
}

// printLayerTable prints the predict path as layers that add up to the
// client-side mean, with the unattributed residual.
func printLayerTable(w io.Writer, s metricSet) {
	client := s.m["client.total_us"].Value
	fmt.Fprintln(w, "  layer table: mean µs per predict request, share of client time")
	for _, n := range []string{"net.transport_us", "http.admission_us", "batcher.queue_us", "infer.encode_us",
		"infer.score_us", "infer.aggregate_us", "http.respond_us", "residual_us"} {
		v := s.m[n].Value
		fmt.Fprintf(w, "    %-22s %10.1f %6.1f%%\n", n, v, 100*ratio(v, client))
	}
	fmt.Fprintf(w, "    %-22s %10.1f %6.1f%%\n", "= client.total_us", client, 100.0)
}
