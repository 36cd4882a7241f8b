package serve

import (
	"fmt"
	"net/http"
	"strings"

	"boosthd/internal/obs"
)

// metrics answers GET /metrics in the Prometheus text exposition format
// (version 0.0.4), assembled from the same snapshots the JSON endpoints
// serve: Server.Stats, and — when configured — the trainer and
// reliability monitor statuses. Everything is read from point-in-time
// snapshots, so a scrape never blocks the serving or scrubbing paths.
// Per-learner gauges carry a learner="<index>" label; everything else is
// unlabeled. The endpoint is read-only and stays open like /healthz.
func (h *handler) metrics(w http.ResponseWriter, r *http.Request) {
	if !wantMethod(w, r, http.MethodGet) {
		return
	}
	var b strings.Builder
	st := h.s.Stats()

	counter := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %g\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}

	counter("boosthd_requests_total", "Rows served across /predict and /predict_batch.", float64(st.Served))
	counter("boosthd_batches_total", "Engine batch calls executed (after micro-batch coalescing).", float64(st.Batches))
	gauge("boosthd_batch_size_mean", "Mean coalesced batch size since start.", st.MeanBatch)
	counter("boosthd_swaps_total", "Serving engines installed (hot swaps, repairs, retrains).", float64(st.Swaps))
	gauge("boosthd_queue_depth", "Requests currently queued in the micro-batcher.", float64(st.QueueDepth))
	counter("boosthd_straggler_fires_total", "Batches flushed by the MaxWait straggler timer before filling.", float64(st.StragglerFires))
	counter("boosthd_lone_fastpath_total", "Batches that skipped the straggler wait on the lone-caller fast path.", float64(st.LoneFastPath))
	counter("boosthd_flushes_total", "Micro-batcher collect cycles flushed (each issues one batch call per distinct engine view).", float64(st.Flushes))
	counter("boosthd_tenant_rows_total", "Rows served through the batcher pinned to a resolved tenant view.", float64(st.TenantRows))
	counter("boosthd_coalesced_rows_total", "Served rows that shared their engine batch call with at least one other row.", float64(st.CoalescedRows))
	gauge("boosthd_model_version", "Generation of the installed serving engine.", float64(st.ModelVersion))
	gauge("boosthd_encoder_state_bytes", "Resident memory of the serving encoder stack: stored projection matrices plus every encoder plane (phases, activation constants, seeded sign bytes).", float64(st.EncoderStateBytes))
	fmt.Fprintf(&b, "# HELP boosthd_model_info Serving model identity; constant 1, labeled by backend and encoder projection mode.\n")
	fmt.Fprintf(&b, "# TYPE boosthd_model_info gauge\n")
	fmt.Fprintf(&b, "boosthd_model_info{backend=%q,projection=%q} 1\n", st.Backend, st.Projection)

	if o := h.s.Obs(); o != nil {
		// Latency distributions from the lock-free sharded histograms
		// (power-of-two buckets, shards merged here at scrape time).
		o.ReqLatency.Snapshot().WriteProm(&b, "boosthd_request_seconds",
			"End-to-end request latency through the micro-batcher.", 1e9)
		o.BatchWait.Snapshot().WriteProm(&b, "boosthd_batch_wait_seconds",
			"Coalesce wait per flushed batch (first enqueue to dispatch).", 1e9)
		o.BatchSize.Snapshot().WriteProm(&b, "boosthd_batch_size_rows",
			"Rows per engine batch call.", 1)
		o.EncodeTime.Snapshot().WriteProm(&b, "boosthd_encode_seconds",
			"Engine encode phase wall time per batch.", 1e9)
		o.ScoreTime.Snapshot().WriteProm(&b, "boosthd_score_seconds",
			"Engine score phase wall time per batch (includes the fused aggregation).", 1e9)
		if h.cfg.Tenants != nil {
			o.ColdLoad.Snapshot().WriteProm(&b, "boosthd_tenant_cold_load_seconds",
				"Tenant cold-load latency (delta store read + view build).", 1e9)
		}
		if stages := o.Stages.Snapshot(); len(stages) > 0 {
			fmt.Fprintf(&b, "# HELP boosthd_stage_seconds_total Cumulative serving-pipeline stage wall time per backend.\n")
			fmt.Fprintf(&b, "# TYPE boosthd_stage_seconds_total counter\n")
			for _, ss := range stages {
				for i, name := range obs.StageNames {
					if ss.NS[i] != 0 {
						fmt.Fprintf(&b, "boosthd_stage_seconds_total{backend=%q,stage=%q} %g\n",
							ss.Backend, name, float64(ss.NS[i])/1e9)
					}
				}
			}
		}
		gauge("boosthd_trace_sample_every", "Trace sampling period (0 = sampling disabled).", float64(o.Tracer.SampleEvery()))
		counter("boosthd_trace_sampled_total", "Full stage traces captured into the /trace ring.", float64(o.Tracer.Sampled()))
		counter("boosthd_events_total", "Reliability/tenant events appended to the /events journal.", float64(o.Journal.Seq()))
	}

	if h.cfg.Trainer != nil {
		tst := h.cfg.Trainer.Status()
		counter("boosthd_trainer_observed_total", "Labeled samples ingested through /observe.", float64(tst.Observed))
		counter("boosthd_trainer_updated_total", "Samples whose online update moved class memory.", float64(tst.Updated))
		gauge("boosthd_trainer_buffered", "Samples currently in the retrain buffer.", float64(tst.Buffered))
		counter("boosthd_trainer_retrains_total", "Successful retrain+swap cycles.", float64(tst.Retrains))
		counter("boosthd_trainer_retrain_failures_total", "Retrains that errored.", float64(tst.RetrainFailures))
	}

	if h.cfg.Tenants != nil {
		tst := h.cfg.Tenants.Stats()
		gauge("boosthd_tenant_residents", "Cached tenants holding a copy-on-write delta.", float64(tst.Residents))
		gauge("boosthd_tenant_cached", "All cached tenant entries (including base passthroughs).", float64(tst.Cached))
		gauge("boosthd_tenant_cache_capacity", "LRU bound on cached tenant entries.", float64(tst.Capacity))
		gauge("boosthd_tenant_shards", "Lock stripes the tenant cache is split into.", float64(tst.Shards))
		gauge("boosthd_tenant_resident_bytes", "Delta float memory resident across cached tenants.", float64(tst.ResidentBytes))
		counter("boosthd_tenant_hits_total", "Tenant resolutions served from the cache.", float64(tst.Hits))
		counter("boosthd_tenant_misses_total", "Tenant resolutions that missed the cache.", float64(tst.Misses))
		counter("boosthd_tenant_cold_loads_total", "Tenant deltas loaded from the checkpoint store.", float64(tst.ColdLoads))
		counter("boosthd_tenant_evictions_total", "Tenant entries evicted by the LRU bound.", float64(tst.Evictions))
		counter("boosthd_tenant_base_mismatches_total", "Tenant delta records rejected for a base fingerprint mismatch.", float64(tst.Mismatches))
		counter("boosthd_tenant_rebuilds_total", "Resident tenant views rebuilt after a base swap.", float64(tst.Rebuilds))
		counter("boosthd_tenant_corruptions_total", "Resident tenant deltas failing their scrub signature.", float64(tst.Corruptions))
		counter("boosthd_tenant_scrubs_total", "Tenant delta scrub passes completed.", float64(tst.Scrubs))
		counter("boosthd_tenant_compactions_total", "Tenant delta journals folded back into full records.", float64(tst.Compactions))
	}

	if h.cfg.Reliability != nil {
		rst := h.cfg.Reliability.Status()
		degraded := 0.0
		if rst.Degraded {
			degraded = 1
		}
		gauge("boosthd_reliability_degraded", "1 while any learner is quarantined or dimension-masked.", degraded)
		gauge("boosthd_reliability_quarantined_learners", "Learners currently whole-vote quarantined.", float64(len(rst.Quarantined)))
		gauge("boosthd_reliability_dim_masked_learners", "Learners currently dimension-masked but still voting.", float64(len(rst.DimMasked)))
		gauge("boosthd_reliability_masked_words", "Packed 64-bit words masked out of the ensemble vote.", float64(rst.MaskedWords))
		counter("boosthd_reliability_scrubs_total", "Integrity scrub passes completed.", float64(rst.Scrubs))
		counter("boosthd_reliability_detections_total", "Corruption events detected.", float64(rst.Detections))
		counter("boosthd_reliability_quarantines_total", "Learners quarantined (cumulative).", float64(rst.Quarantines))
		counter("boosthd_reliability_repairs_total", "Learners repaired (cumulative).", float64(rst.Repairs))
		counter("boosthd_reliability_encoder_heals_total", "Learners named by encoder plane heals (cumulative).", float64(rst.EncoderHeals))
		counter("boosthd_reliability_repair_failures_total", "Repair attempts that failed.", float64(rst.RepairFails))
		gauge("boosthd_reliability_canary_rows", "Held-out canary rows (0 = integrity-only scrubbing).", float64(rst.CanaryRows))
		gauge("boosthd_reliability_last_scrub_duration_seconds", "Duration of the most recent scrub pass.", rst.LastScrubMS/1e3)
		if len(rst.Ledger) > 0 {
			fmt.Fprintf(&b, "# HELP boosthd_learner_healthy_fraction Fraction of a learner's dimensions still voting (1 healthy, 0 quarantined).\n")
			fmt.Fprintf(&b, "# TYPE boosthd_learner_healthy_fraction gauge\n")
			for i, lh := range rst.Ledger {
				fmt.Fprintf(&b, "boosthd_learner_healthy_fraction{learner=\"%d\"} %g\n", i, lh.HealthyFraction)
			}
			fmt.Fprintf(&b, "# HELP boosthd_learner_masked_words Packed words masked out of a learner's vote.\n")
			fmt.Fprintf(&b, "# TYPE boosthd_learner_masked_words gauge\n")
			for i, lh := range rst.Ledger {
				fmt.Fprintf(&b, "boosthd_learner_masked_words{learner=\"%d\"} %d\n", i, lh.MaskedWords)
			}
		}
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(b.String()))
}
