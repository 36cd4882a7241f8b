// Command boosthd-serve runs the HTTP/JSON serving layer over a trained
// BoostHD model: concurrent /predict requests are coalesced by the
// adaptive micro-batcher into the engine's fused batch pipeline, /swap
// hot-loads a new checkpoint without dropping in-flight requests, and
// with -trainer the streaming continual-learning loop keeps the model
// fresh from labeled /observe traffic.
//
// Usage:
//
//	boosthd-serve [-addr :8080] [-checkpoint model.bhde] [-backend float|binary]
//	              [-projection stored|seeded]
//	              [-checkpoint-dir dir] [-body-limit bytes] [-max-rows N]
//	              [-auth-token secret]
//	              [-trainer] [-retrain-every 0] [-buffer 4096] [-retrain-mode full|alphas]
//	              [-tenants] [-tenant-dir dir] [-tenant-cache 1024]
//	              [-scrub-every 0] [-canary 0] [-quarantine-threshold 0.15]
//	              [-segment-words 8] [-min-healthy 0.5] [-chaos]
//	              [-trace-sample 0] [-events-file path] [-debug-addr addr]
//	              [-read-timeout 30s] [-write-timeout 30s] [-idle-timeout 2m]
//	              [-shutdown-grace 15s]
//
// -checkpoint accepts a float ensemble checkpoint (written by
// Model.Save / cmd/boosthd -save) or, with -backend binary, a quantized
// binary snapshot (BinaryModel.Save) that cold-loads without
// re-quantization. Without -checkpoint the server trains a demo model on
// the synthetic WESAD workload so the endpoints can be exercised
// immediately; -projection selects that demo model's encoder projection
// (stored matrix or the rematerialized seeded encoder).
//
// Hardening: every request body is capped (-body-limit, 413 beyond),
// batch row counts are capped (-max-rows, 400 beyond), the listener
// runs with read/write/idle timeouts instead of a bare
// http.ListenAndServe, and SIGINT/SIGTERM trigger a graceful shutdown —
// the listener stops accepting, in-flight handlers finish, and the
// micro-batcher drains everything it already accepted. /swap only loads
// checkpoints from inside -checkpoint-dir (disabled when unset), and
// -auth-token requires a bearer token on every mutating endpoint
// (/swap, /observe, /retrain).
//
// Reliability: -scrub-every starts the internal/reliability monitor — a
// background scrubber that verifies segmented integrity signatures over
// the model memory (float checksums + packed-plane parity words, one
// parity+digest pair per -segment-words words), masks exactly the
// corrupted dimension words out of the serving votes (falling back to a
// whole-learner quarantine when the healthy fraction drops below
// -min-healthy or the masked segments' canary-measured criticality
// exceeds -quarantine-threshold), and repairs surgically (per-learner
// re-threshold, per-segment restore from the -checkpoint file, or a
// trainer hot-retrain). -canary N holds N rows out of the demo workload
// as the per-learner accuracy canary (demo model only). With -trainer,
// every streaming update is announced to the monitor with a fresh
// signature (SignedUpdates), so integrity scrubbing stays strict under
// live training. /healthz gains a model-identity and reliability block;
// /reliability serves the full health ledger with per-learner
// healthy-dimension fractions and masked-word counts. -chaos enables
// the POST /inject word-fault drill endpoint (binary backend only).
//
// Multi-tenant serving: -tenants multiplexes the process across tenants
// — one shared immutable base model plus a copy-on-write learner delta
// per tenant (an LRU of resident views over a per-tenant checkpoint
// store in -tenant-dir). Requests address a tenant with the X-Tenant
// header or the /t/{tenant}/{predict,predict_batch,observe,retrain}
// path form; tenant observes buffer privately and tenant retrains refit
// only that tenant's delta learners, never the shared base. A base
// retrain republishes to every tenant through the server's atomic swap.
// With -scrub-every the registry also re-verifies each resident delta's
// signature on the scrub cadence (the base is signed once by the
// reliability monitor).
//
// Observability: stage-level latency histograms (request, batch wait,
// batch size, encode, score), per-backend stage accounting, and the
// reliability/tenant event journal are always on and exported through
// /metrics, /trace, and /events. -trace-sample N additionally captures
// every Nth request's full stage trace (admission → queue → encode →
// score → aggregate) into the bounded /trace ring; -events-file mirrors
// the event journal to a JSONL file next to the reliability state.
// -debug-addr starts a SECOND listener serving net/http/pprof under
// /debug/pprof/ — it is never mounted on the serving mux and carries no
// auth, so bind it to localhost (or a firewalled port) only.
//
// Endpoints:
//
//	POST /predict        {"features":[...]}                      -> {"label":n}
//	POST /predict_batch  {"rows":[[...],...]}                    -> {"labels":[...]}
//	GET  /healthz                                                -> serving + trainer stats
//	GET  /metrics                                                -> Prometheus text metrics
//	POST /swap           {"checkpoint":"name","backend":"float"} -> swap report
//	POST /observe        {"features":[...],"label":n}            -> ingestion report
//	POST /retrain        {}                                      -> retrain report
//	GET  /reliability                                            -> health ledger + counters
//	GET  /tenants                                                -> tenant registry stats
//	GET  /trace                                                  -> sampled stage traces + stage accounting
//	GET  /events                                                 -> reliability/tenant event journal
//	*    /t/{tenant}/{predict|predict_batch|observe|retrain}     -> tenant-scoped ops
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/pprof"
	"os"
	osignal "os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"boosthd/internal/boosthd"
	"boosthd/internal/encoding"
	"boosthd/internal/faults"
	"boosthd/internal/infer"
	"boosthd/internal/obs"
	"boosthd/internal/reliability"
	"boosthd/internal/serve"
	"boosthd/internal/signal"
	"boosthd/internal/synth"
	"boosthd/internal/trainer"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	checkpoint := flag.String("checkpoint", "", "model checkpoint to serve (empty = train a synthetic demo model)")
	backend := flag.String("backend", "float", "serving backend: float or binary")
	projection := flag.String("projection", "stored", "demo-model encoder projection: stored or seeded")
	checkpointDir := flag.String("checkpoint-dir", "", "allowlist root for /swap checkpoints (empty = /swap disabled)")
	authToken := flag.String("auth-token", "", "bearer token required on /swap, /observe, /retrain (empty = no auth)")
	bodyLimit := flag.Int64("body-limit", 0, "request body cap in bytes (0 = default 8 MiB, negative = unlimited)")
	maxRows := flag.Int("max-rows", 0, "batch request row cap (0 = default 4096, negative = unlimited)")
	useTrainer := flag.Bool("trainer", false, "enable the streaming continual-learning trainer (/observe, /retrain)")
	useTenants := flag.Bool("tenants", false, "enable multi-tenant serving (X-Tenant header and /t/{tenant}/... routes over copy-on-write per-tenant deltas)")
	tenantDir := flag.String("tenant-dir", "", "per-tenant delta checkpoint directory (empty = ephemeral temp dir)")
	tenantCache := flag.Int("tenant-cache", 0, "resident tenant view cache size (0 = default 1024)")
	retrainEvery := flag.Duration("retrain-every", 0, "background retrain period (0 = manual /retrain only)")
	bufferCap := flag.Int("buffer", 4096, "trainer sample buffer capacity")
	retrainMode := flag.String("retrain-mode", "full", "retrain scope: full (refit learners+alphas) or alphas (reweight only)")
	scrubEvery := flag.Duration("scrub-every", 0, "reliability scrub period (0 = monitor disabled)")
	canaryRows := flag.Int("canary", 0, "held-out canary rows for per-learner health checks (demo model only)")
	quarantineThreshold := flag.Float64("quarantine-threshold", 0.15, "canary accuracy drop that quarantines a learner")
	segmentWords := flag.Int("segment-words", 0, "signature/quarantine segment width in packed 64-bit words (0 = default 8; corruption is masked at this granularity)")
	minHealthy := flag.Float64("min-healthy", 0, "healthy-dimension fraction below which a learner is fully quarantined instead of dimension-masked (0 = default 0.5, >=1 = always whole-learner)")
	chaos := flag.Bool("chaos", false, "enable the POST /inject fault-injection drill endpoint (binary backend; gate with -auth-token on exposed ports)")
	traceSample := flag.Int("trace-sample", 0, "capture every Nth request's full stage trace into /trace (0 = no per-request traces; histograms and /events stay on)")
	eventsFile := flag.String("events-file", "", "mirror the /events reliability journal to this JSONL file (empty = in-memory ring only)")
	debugAddr := flag.String("debug-addr", "", "extra listener for net/http/pprof under /debug/pprof/ (empty = disabled; unauthenticated — bind to localhost only)")
	readTimeout := flag.Duration("read-timeout", 30*time.Second, "HTTP server read timeout")
	writeTimeout := flag.Duration("write-timeout", 30*time.Second, "HTTP server write timeout")
	idleTimeout := flag.Duration("idle-timeout", 2*time.Minute, "HTTP server idle timeout")
	shutdownGrace := flag.Duration("shutdown-grace", 15*time.Second, "max wait for in-flight requests on SIGTERM")
	flag.Parse()

	// Trainer-only knobs without -trainer would silently do nothing —
	// the operator would believe the model is adapting while it serves
	// frozen. Refuse the misconfiguration outright.
	if !*useTrainer {
		trainerOnly := map[string]bool{"retrain-every": true, "buffer": true, "retrain-mode": true}
		flag.Visit(func(f *flag.Flag) {
			if trainerOnly[f.Name] {
				fail(fmt.Errorf("-%s requires -trainer", f.Name))
			}
		})
	}
	// Tenant-only knobs without -tenants would configure a subsystem that
	// never starts; refuse the misconfiguration outright.
	if !*useTenants {
		tenantOnly := map[string]bool{"tenant-dir": true, "tenant-cache": true}
		flag.Visit(func(f *flag.Flag) {
			if tenantOnly[f.Name] {
				fail(fmt.Errorf("-%s requires -tenants", f.Name))
			}
		})
	}
	if *scrubEvery <= 0 {
		scrubOnly := map[string]bool{"canary": true, "quarantine-threshold": true, "segment-words": true, "min-healthy": true}
		flag.Visit(func(f *flag.Flag) {
			if scrubOnly[f.Name] {
				fail(fmt.Errorf("-%s requires -scrub-every", f.Name))
			}
		})
	}
	if *scrubEvery > 0 && *quarantineThreshold <= 0 {
		// An exact-zero tolerance would quarantine on ordinary canary
		// noise, and the monitor's config treats 0 as "use the default"
		// — refuse the ambiguity instead of silently serving either
		// meaning.
		fail(fmt.Errorf("-quarantine-threshold must be positive (got %v)", *quarantineThreshold))
	}
	proj, err := encoding.ParseProjection(strings.ToLower(*projection))
	if err != nil {
		fail(err)
	}
	if proj != encoding.ProjStored && *checkpoint != "" {
		// A checkpoint already fixes its own projection mode; accepting the
		// flag here would suggest it re-encodes the served model.
		fail(fmt.Errorf("-projection applies only to the demo model (no -checkpoint); " +
			"checkpoints carry their projection mode"))
	}
	if *canaryRows > 0 && *checkpoint != "" {
		// The canary is held out of the demo workload; a checkpointed
		// model brings no data to hold out. Refuse rather than silently
		// run integrity-only scrubbing the operator believes is
		// canary-guarded.
		fail(fmt.Errorf("-canary requires the demo model (no -checkpoint); " +
			"checkpointed deployments run integrity-signature scrubbing"))
	}

	var (
		eng     *infer.Engine
		canaryX [][]float64
		canaryY []int
	)
	if *checkpoint != "" {
		eng, err = serve.LoadEngine(*checkpoint, *backend)
		if err != nil {
			fail(err)
		}
		fmt.Printf("serving checkpoint %s on the %s backend\n", *checkpoint, eng.Backend())
	} else {
		eng, canaryX, canaryY, err = demoEngine(*backend, proj, *canaryRows)
		if err != nil {
			fail(err)
		}
		fmt.Printf("serving synthetic WESAD demo model on the %s backend\n", eng.Backend())
	}

	srv, err := serve.NewServer(eng, serve.Config{})
	if err != nil {
		fail(err)
	}
	cfg := srv.Config()
	fmt.Printf("micro-batcher: max-batch %d, max-wait %v, %d workers\n",
		cfg.MaxBatch, cfg.MaxWait, cfg.Workers)

	if *traceSample < 0 {
		fail(fmt.Errorf("-trace-sample must be >= 0 (got %d)", *traceSample))
	}
	// Observability is always on: the histograms and the event journal
	// are allocation-free / off the hot path, and every subsystem below
	// (monitor, registry, trainer, handlers) reaches them through the
	// server. -trace-sample only governs per-request stage traces.
	ob := obs.NewServing(*traceSample, 0, 0)
	if *eventsFile != "" {
		if err := ob.Journal.Persist(*eventsFile); err != nil {
			fail(err)
		}
		fmt.Printf("observability: mirroring /events to %s\n", *eventsFile)
	}
	srv.SetObs(ob)
	if *traceSample > 0 {
		fmt.Printf("observability: tracing every %dth request into /trace\n", *traceSample)
	}

	hcfg := serve.HandlerConfig{
		MaxBodyBytes:  *bodyLimit,
		MaxBatchRows:  *maxRows,
		CheckpointDir: *checkpointDir,
		AuthToken:     *authToken,
	}
	var tr *trainer.Trainer
	if *useTrainer {
		tr, err = trainer.New(srv, trainer.Config{
			BufferCap:    *bufferCap,
			RetrainEvery: *retrainEvery,
			Backend:      *backend,
			Mode:         *retrainMode,
		})
		if err != nil {
			fail(err)
		}
		tr.Start()
		hcfg.Trainer = tr
		fmt.Printf("trainer: buffer %d, retrain-every %v (%s retrain, %s backend at swap)\n",
			*bufferCap, *retrainEvery, tr.Config().Mode, tr.Config().Backend)
	}
	if *checkpointDir != "" {
		fmt.Printf("/swap allowlist root: %s\n", *checkpointDir)
	}

	var reg *serve.TenantRegistry
	if *useTenants {
		dir := *tenantDir
		if dir == "" {
			dir, err = os.MkdirTemp("", "boosthd-tenants-*")
			if err != nil {
				fail(err)
			}
			fmt.Printf("tenants: no -tenant-dir; deltas persist to ephemeral %s\n", dir)
		} else if err := os.MkdirAll(dir, 0o755); err != nil {
			fail(err)
		}
		reg, err = serve.NewTenantRegistry(srv, serve.TenantRegistryConfig{
			Store:     serve.NewFileDeltaStore(dir),
			CacheSize: *tenantCache,
		})
		if err != nil {
			fail(err)
		}
		tt, err := trainer.NewTenantTrainer(reg, trainer.TenantConfig{})
		if err != nil {
			fail(err)
		}
		hcfg.Tenants = reg
		hcfg.TenantTrainer = tt
		if *scrubEvery > 0 {
			// The reliability monitor signs the base once; the registry
			// scrubs each resident tenant delta separately on the same
			// cadence.
			reg.Start(*scrubEvery)
		}
		st := reg.Stats()
		fmt.Printf("tenants: delta store %s, cache %d views over %d shards, base %s\n",
			dir, st.Capacity, st.Shards, st.BaseHash)
	}

	var mon *reliability.Monitor
	if *scrubEvery > 0 {
		rcfg := reliability.Config{
			ScrubEvery:         *scrubEvery,
			QuarantineDrop:     *quarantineThreshold,
			SegmentWords:       *segmentWords,
			MinHealthyFraction: *minHealthy,
			// The served checkpoint doubles as the last verified copy:
			// restore quarantined learners from it.
			CheckpointPath: *checkpoint,
			// A trainer legitimately mutates class memory in place — but
			// it announces every update with a fresh signature through
			// the mutation-observer contract wired below, so scrubbing
			// stays strict instead of trusting version bumps wholesale.
			SignedUpdates: *useTrainer,
		}
		if *checkpointDir != "" {
			// Fault history and criticality baselines survive restarts:
			// persisted after every scrub/repair pass, restored below.
			rcfg.StatePath = filepath.Join(*checkpointDir, "reliability_state.json")
		}
		if tr != nil {
			rcfg.Trainer = tr
		}
		mon, err = reliability.New(srv, rcfg)
		if err != nil {
			fail(err)
		}
		if tr != nil {
			tr.SetMutationObserver(mon.NoteMutation)
		}
		if len(canaryX) > 0 {
			if err := mon.SetCanary(canaryX, canaryY); err != nil {
				fail(err)
			}
		}
		// Load AFTER SetCanary so persisted baselines (and the expensive
		// criticality sweep) win over the freshly recomputed ones. A
		// mismatched or corrupt state file is loud but non-fatal: the
		// monitor starts with a blank ledger, as before persistence.
		if sp := rcfg.StatePath; sp != "" {
			switch err := mon.LoadState(sp); {
			case err == nil:
				fmt.Printf("reliability: restored health ledger from %s\n", sp)
			case errors.Is(err, os.ErrNotExist):
			default:
				fmt.Fprintln(os.Stderr, "boosthd-serve: starting with a fresh health ledger:", err)
			}
		}
		mon.Start()
		hcfg.Reliability = mon
		repair := "none (detect + quarantine only)"
		switch {
		case *checkpoint != "":
			repair = "checkpoint restore"
		case tr != nil:
			repair = "trainer hot-retrain"
		case eng.Binary() != nil && !eng.Binary().Frozen():
			repair = "re-threshold from float memory"
		}
		mcfg := mon.Config()
		fmt.Printf("reliability: scrub every %v, canary %d rows, quarantine drop %.2f, %d-word segments, min healthy fraction %.2f, repair via %s\n",
			*scrubEvery, len(canaryX), *quarantineThreshold, mcfg.SegmentWords, mcfg.MinHealthyFraction, repair)
	}
	if *chaos {
		hcfg.Chaos = &chaosInjector{srv: srv, rng: rand.New(rand.NewSource(1))}
		fmt.Println("chaos: POST /inject enabled (fault-injection drills)")
	}

	// A configured http.Server instead of bare ListenAndServe: header and
	// body reads, response writes, and idle keep-alives all time out, so
	// a slow-drip client (Slowloris) cannot pin a connection forever.
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           serve.NewHandler(srv, hcfg),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	fmt.Printf("listening on %s\n", *addr)

	// The pprof listener is a separate mux on a separate port — never the
	// serving mux, so profiling can stay firewalled while /predict is
	// exposed. It carries no auth: bind it to localhost.
	var dbgSrv *http.Server
	if *debugAddr != "" {
		dm := http.NewServeMux()
		dm.HandleFunc("/debug/pprof/", pprof.Index)
		dm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dbgSrv = &http.Server{Addr: *debugAddr, Handler: dm, ReadHeaderTimeout: 5 * time.Second}
		go func() {
			if err := dbgSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "boosthd-serve: debug listener:", err)
			}
		}()
		fmt.Printf("debug: pprof on %s/debug/pprof/ (unauthenticated; keep it local)\n", *debugAddr)
	}

	sigCh := make(chan os.Signal, 1)
	osignal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		fail(err)
	case sig := <-sigCh:
		fmt.Printf("caught %v, draining\n", sig)
	}
	// Graceful shutdown: stop accepting and let in-flight handlers
	// finish, halt the retrain loop, then drain the micro-batcher —
	// everything it accepted is still served before exit. The HTTP
	// drain and the retrain-loop wait share ONE -shutdown-grace budget
	// (an in-flight paper-scale refit can run for minutes, and two
	// stacked grace periods would blow past the orchestrator's kill
	// window the bound exists to respect).
	deadline := time.Now().Add(*shutdownGrace)
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "boosthd-serve: shutdown:", err)
	}
	if dbgSrv != nil {
		_ = dbgSrv.Shutdown(ctx)
	}
	if tr != nil {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			remaining = time.Millisecond
		}
		if !tr.StopWait(remaining) {
			fmt.Fprintln(os.Stderr, "boosthd-serve: retrain still running past shutdown grace; abandoning it")
		}
	}
	if reg != nil {
		reg.Stop()
	}
	if mon != nil {
		mon.Stop()
		if sp := mon.Config().StatePath; sp != "" {
			if err := mon.SaveState(sp); err != nil {
				fmt.Fprintln(os.Stderr, "boosthd-serve:", err)
			}
		}
	}
	srv.Close()
	if err := ob.Journal.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "boosthd-serve: events file:", err)
	}
	fmt.Println("drained; bye")
}

// demoEngine trains a small ensemble on the synthetic WESAD workload so
// the server is usable without a checkpoint file. canary > 0 holds that
// many held-out (subject-disjoint, train-normalized) rows back as the
// reliability monitor's canary set.
func demoEngine(backend string, proj encoding.Projection, canary int) (*infer.Engine, [][]float64, []int, error) {
	cfg := synth.WESADConfig()
	cfg.NumSubjects = 12
	cfg.SamplesPerState = 1536
	data, roster, err := synth.Build(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	train, test, _, err := synth.SubjectSplit(data, roster, 0.3, 11)
	if err != nil {
		return nil, nil, nil, err
	}
	norm, err := signal.FitNormalizer(train.X, signal.ZScore)
	if err != nil {
		return nil, nil, nil, err
	}
	if _, err := norm.Apply(train.X); err != nil {
		return nil, nil, nil, err
	}
	mcfg := boosthd.DefaultConfig(10000, 10, data.NumClasses)
	mcfg.Epochs = 5
	mcfg.Projection = proj
	m, err := boosthd.Train(train.X, train.Y, mcfg)
	if err != nil {
		return nil, nil, nil, err
	}
	var canaryX [][]float64
	var canaryY []int
	if canary > 0 {
		if canary > len(test.X) {
			canary = len(test.X)
		}
		if _, err := norm.Apply(test.X[:canary]); err != nil {
			return nil, nil, nil, err
		}
		canaryX, canaryY = test.X[:canary], test.Y[:canary]
	}
	var eng *infer.Engine
	switch strings.ToLower(backend) {
	case "", "float":
		eng = infer.NewEngine(m)
	case "binary", "packed-binary":
		eng, err = infer.NewBinaryEngine(m)
		if err != nil {
			return nil, nil, nil, err
		}
	default:
		return nil, nil, nil, fmt.Errorf("unknown backend %q (want float or binary)", backend)
	}
	return eng, canaryX, canaryY, nil
}

// chaosInjector is the -chaos implementation of serve.Chaos: it flips
// bits of the live packed-binary planes through the engine's
// clone-and-swap injection path, exactly the silent word-fault model
// the reliability monitor exists to catch. The rng is guarded so
// concurrent drills do not race it.
type chaosInjector struct {
	mu  sync.Mutex
	srv *serve.Server
	rng *rand.Rand
}

func (c *chaosInjector) InjectWords(pb float64) (int, error) {
	bin := c.srv.Engine().Binary()
	if bin == nil {
		return 0, fmt.Errorf("%w: chaos injection needs the binary backend (serving float)", serve.ErrBadInput)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	inj, err := faults.NewInjector(pb, c.rng)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", serve.ErrBadInput, err)
	}
	return bin.InjectWordFaults(inj), nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "boosthd-serve:", err)
	os.Exit(1)
}
