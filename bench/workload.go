package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"boosthd/internal/boosthd"
	"boosthd/internal/encoding"
	"boosthd/internal/hdc"
	"boosthd/internal/infer"
	"boosthd/internal/obs"
	"boosthd/internal/onlinehd"
	"boosthd/internal/serve"
	"boosthd/internal/signal"
	"boosthd/internal/synth"
	"boosthd/internal/trainer"
)

// The four traffic mixes; README.md says why each exists.
const (
	predictBase   = "predict-base"
	predictBatch  = "predict-batch"
	predictTenant = "predict-tenant"
	observeMixed  = "observe-mixed"
)

var workloads = []string{predictBase, predictBatch, predictTenant, observeMixed}

const (
	// connections is the closed-loop client count: one keep-alive
	// connection per core of the 2-vCPU reference host.
	connections = 2
	batchRows   = 64  // rows per /predict_batch request
	jitter      = 0.1 // σ of the Gaussian noise on pool rows, in z-scored units
	tenantCache = 256 // resident tenant views
	zipfS       = 1.1 // skew of the tenant draw
	// deltaLearners is how many base learners each tenant overrides.
	deltaLearners = 2
	// observe-mixed runs one script round per roundSeconds of the window,
	// at most maxRounds: 8 rounds of 512 observes fill the trainer's
	// default 4096-sample buffer.
	roundSeconds = 2.5
	maxRounds    = 8
)

// config is one run's settings. main keeps the scale fields at their
// defaults, which are the benchmark; the smoke test shrinks them.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	workDir  string // scratch for the tenant store; removed by close

	subjects, samplesPerState int
	dim, learners, epochs     int
	poolRows                  int
	tenants                   int
	observesPerRound          int
	setups                    int // set-ups timed per untraced run; setup_s is their median
	warmup                    time.Duration
}

func defaultConfig() config {
	return config{
		seed:             1,
		seconds:          15,
		out:              filepath.Join(".bench_build", "results.jsonl"),
		workDir:          filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid())),
		subjects:         12,
		samplesPerState:  1536,
		dim:              10000,
		learners:         10,
		epochs:           5,
		poolRows:         4096,
		tenants:          2000,
		observesPerRound: 512,
		setups:           5,
		warmup:           3 * time.Second,
	}
}

// rounds is the observe-mixed script length for a window of secs.
func rounds(secs float64) int {
	return min(max(int(math.Round(secs/roundSeconds)), 1), maxRounds)
}

// call is one prepared request: the body is marshalled before timing,
// and want holds the reference label of each row (nil: any class index
// is accepted, because the model is being retrained underneath).
type call struct {
	path string
	body []byte
	rows int
	want []int
}

// bench is one prepared workload: its inputs and their reference
// answers, all made before anything is timed.
type bench struct {
	cfg       config
	fp        uint64 // fingerprint of the model every set-up must reproduce
	classes   int
	predicts  []call // predict traffic in draw order
	observes  []call // observe-mixed: the labelled /observe script
	accBody   []byte // held-out split as one /predict_batch body
	accY      []int
	tenantDir string
	spans     []obs.Span   // traced run: the spans of the measured window
	refit     sync.RWMutex // held by the observe-mixed script during /retrain
}

// demo is the boosthd-serve -projection seeded demo model with its
// z-scored splits.
type demo struct {
	model         *boosthd.Model
	trainX, testX [][]float64
	trainY, testY []int
	classes       int
}

// trainDemo builds the demo model exactly as cmd/boosthd-serve does:
// synthetic WESAD, subject split, z-scored on the training split.
func trainDemo(cfg config) (*demo, error) {
	scfg := synth.WESADConfig()
	scfg.NumSubjects = cfg.subjects
	scfg.SamplesPerState = cfg.samplesPerState
	data, roster, err := synth.Build(scfg)
	if err != nil {
		return nil, err
	}
	train, test, _, err := synth.SubjectSplit(data, roster, 0.3, 11)
	if err != nil {
		return nil, err
	}
	norm, err := signal.FitNormalizer(train.X, signal.ZScore)
	if err != nil {
		return nil, err
	}
	if _, err := norm.Apply(train.X); err != nil {
		return nil, err
	}
	if _, err := norm.Apply(test.X); err != nil {
		return nil, err
	}
	mcfg := boosthd.DefaultConfig(cfg.dim, cfg.learners, data.NumClasses)
	mcfg.Epochs = cfg.epochs
	mcfg.Projection = encoding.ProjSeeded
	m, err := boosthd.Train(train.X, train.Y, mcfg)
	if err != nil {
		return nil, err
	}
	return &demo{model: m, trainX: train.X, trainY: train.Y, testX: test.X, testY: test.Y,
		classes: data.NumClasses}, nil
}

// prepare generates a workload's inputs from cfg.seed and computes their
// reference labels on an engine of its own.
func prepare(cfg config) (*bench, error) {
	known := false
	for _, w := range workloads {
		known = known || w == cfg.workload
	}
	if !known {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloads)
	}
	d, err := trainDemo(cfg)
	if err != nil {
		return nil, fmt.Errorf("train demo model: %w", err)
	}
	b := &bench{cfg: cfg, fp: d.model.Fingerprint(), classes: d.classes, accY: d.testY}
	if b.accBody, err = json.Marshal(map[string][][]float64{"rows": d.testX}); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	pool, _ := jittered(rng, d.testX, cfg.poolRows)

	switch cfg.workload {
	case predictBase, predictBatch:
		eng, err := infer.NewBinaryEngine(d.model)
		if err != nil {
			return nil, err
		}
		want, err := eng.PredictBatch(pool)
		if err != nil {
			return nil, err
		}
		if cfg.workload == predictBase {
			b.predicts, err = rowCalls("/predict", pool, want)
		} else {
			b.predicts, err = batchCalls(pool, want)
		}
		if err != nil {
			return nil, err
		}
	case predictTenant:
		if err := b.prepareTenants(d.model, pool, rng); err != nil {
			b.close()
			return nil, err
		}
	case observeMixed:
		if b.predicts, err = rowCalls("/predict", pool, nil); err != nil {
			return nil, err
		}
		// The script does not depend on -seed, so the final model and
		// accuracy are the same on every run of a commit.
		script := rand.New(rand.NewSource(1))
		rows, idx := jittered(script, d.trainX, rounds(cfg.seconds)*cfg.observesPerRound)
		b.observes = make([]call, len(rows))
		for i, x := range rows {
			body, err := json.Marshal(struct {
				Features []float64 `json:"features"`
				Label    int       `json:"label"`
			}{x, d.trainY[idx[i]]})
			if err != nil {
				return nil, err
			}
			b.observes[i] = call{path: "/observe", body: body}
		}
	}
	return b, nil
}

// jittered draws n rows from src in seeded order, each with Gaussian
// noise added, so the pool is larger than the split it comes from and no
// two requests carry the same row. idx[i] is the source of row i.
func jittered(rng *rand.Rand, src [][]float64, n int) (rows [][]float64, idx []int) {
	rows, idx = make([][]float64, n), make([]int, n)
	for i := range rows {
		idx[i] = rng.Intn(len(src))
		x := make([]float64, len(src[idx[i]]))
		for j, v := range src[idx[i]] {
			x[j] = v + jitter*rng.NormFloat64()
		}
		rows[i] = x
	}
	return rows, idx
}

func pick(rows [][]float64, idx []int) [][]float64 {
	out := make([][]float64, len(idx))
	for i, j := range idx {
		out[i] = rows[j]
	}
	return out
}

func featuresBody(x []float64) ([]byte, error) {
	return json.Marshal(struct {
		Features []float64 `json:"features"`
	}{x})
}

// rowCalls makes one single-row call per pool row.
func rowCalls(path string, pool [][]float64, want []int) ([]call, error) {
	calls := make([]call, len(pool))
	for i, x := range pool {
		body, err := featuresBody(x)
		if err != nil {
			return nil, err
		}
		calls[i] = call{path: path, body: body, rows: 1}
		if want != nil {
			calls[i].want = want[i : i+1]
		}
	}
	return calls, nil
}

// batchCalls cuts the pool into /predict_batch calls of batchRows rows.
func batchCalls(pool [][]float64, want []int) ([]call, error) {
	var calls []call
	for lo := 0; lo < len(pool); lo += batchRows {
		hi := min(lo+batchRows, len(pool))
		body, err := json.Marshal(map[string][][]float64{"rows": pool[lo:hi]})
		if err != nil {
			return nil, err
		}
		calls = append(calls, call{path: "/predict_batch", body: body, rows: hi - lo, want: want[lo:hi]})
	}
	return calls, nil
}

func tenantID(t int) string { return fmt.Sprintf("t%04d", t) }

// prepareTenants seeds the delta store with one delta per tenant, draws
// each request's tenant from a zipf distribution, and computes the
// reference labels on Engine.WithDelta views of the benchmark's own copy
// of each delta. Deltas are dropped once used, so the benchmark does not
// hold all of them in memory.
func (b *bench) prepareTenants(m *boosthd.Model, pool [][]float64, rng *rand.Rand) error {
	eng, err := infer.NewBinaryEngine(m)
	if err != nil {
		return err
	}
	b.tenantDir = filepath.Join(b.cfg.workDir, "tenants")
	if err := os.MkdirAll(b.tenantDir, 0o755); err != nil {
		return err
	}
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(b.cfg.tenants-1))
	owner := make([]int, len(pool))
	rowsOf := make(map[int][]int)
	for i := range pool {
		owner[i] = int(zipf.Uint64())
		rowsOf[owner[i]] = append(rowsOf[owner[i]], i)
	}
	store := serve.NewFileDeltaStore(b.tenantDir)
	want := make([]int, len(pool))
	for t := 0; t < b.cfg.tenants; t++ {
		d := tenantDelta(m, b.cfg.seed, t)
		if err := store.Save(tenantID(t), d, b.fp); err != nil {
			return err
		}
		idx := rowsOf[t]
		if len(idx) == 0 {
			continue
		}
		view, err := eng.WithDelta(d)
		if err != nil {
			return err
		}
		labels, err := view.PredictBatch(pick(pool, idx))
		if err != nil {
			return err
		}
		for k, i := range idx {
			want[i] = labels[k]
		}
	}
	if b.predicts, err = rowCalls("", pool, want); err != nil {
		return err
	}
	for i := range b.predicts {
		b.predicts[i].path = "/t/" + tenantID(owner[i]) + "/predict"
	}
	return nil
}

// tenantDelta makes tenant t's personalization, seeded by (seed, t)
// alone so it does not depend on the order tenants are made in:
// deltaLearners base learners whose class vectors are rotated one class
// along and jittered, so tenant answers differ from the base model's
// often enough for the reference check to catch a wrong view.
func tenantDelta(m *boosthd.Model, seed int64, t int) *boosthd.Delta {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(t)))
	d := &boosthd.Delta{Learners: map[int]*onlinehd.HVClassifier{}}
	for _, i := range rng.Perm(len(m.Learners))[:deltaLearners] {
		l := m.Learners[i].Clone()
		l.MutateClass(func(class []hdc.Vector) {
			first := class[0]
			copy(class, class[1:])
			class[len(class)-1] = first
			for _, cv := range class {
				for j := range cv {
					cv[j] *= 1 + jitter*rng.NormFloat64()
				}
			}
		})
		d.Learners[i] = l
	}
	return d
}

// close removes the run's scratch files.
func (b *bench) close() {
	if b.tenantDir != "" {
		os.RemoveAll(b.cfg.workDir)
	}
}

// stack is one running serving process: engine, micro-batcher, the
// tenant registry or trainer the workload needs, and the HTTP server.
type stack struct {
	url   string
	srv   *serve.Server
	ob    *obs.Serving
	hs    *http.Server
	done  chan error // the Serve goroutine's return value
	reg   *serve.TenantRegistry
	tr    *trainer.Trainer
	model *boosthd.Model
	p     *probes // nil on untraced runs
}

// start builds the serving stack the way cmd/boosthd-serve does and
// returns once GET /healthz answers 200. setup_s times exactly this.
// A traced stack samples every request into a trace ring of ringCap
// spans and wraps the handler, delta store and trainer in timing probes.
func (b *bench) start(traced bool, ringCap int) (*stack, error) {
	d, err := trainDemo(b.cfg)
	if err != nil {
		return nil, err
	}
	eng, err := infer.NewBinaryEngine(d.model)
	if err != nil {
		return nil, err
	}
	srv, err := serve.NewServer(eng, serve.Config{})
	if err != nil {
		return nil, err
	}
	st := &stack{srv: srv, model: d.model}
	sample := 0
	if traced {
		sample = 1
		st.p = &probes{}
	}
	st.ob = obs.NewServing(sample, ringCap, 0)
	srv.SetObs(st.ob)

	var hcfg serve.HandlerConfig
	switch b.cfg.workload {
	case predictTenant:
		fs := serve.NewFileDeltaStore(b.tenantDir)
		var store serve.DeltaStore = fs
		if traced {
			store = &timedStore{FileDeltaStore: fs, p: st.p}
		}
		if st.reg, err = serve.NewTenantRegistry(srv, serve.TenantRegistryConfig{Store: store, CacheSize: tenantCache}); err != nil {
			st.close()
			return nil, err
		}
		hcfg.Tenants = st.reg
	case observeMixed:
		// boosthd-serve -backend binary -trainer: observes update the float
		// class memory, the packed planes re-threshold on the next predict,
		// and retrains swap in freshly quantized engines.
		if st.tr, err = trainer.New(srv, trainer.Config{Backend: "binary"}); err != nil {
			st.close()
			return nil, err
		}
		hcfg.Trainer = st.tr
		if traced {
			hcfg.Trainer = &timedTrainer{Trainer: st.tr, p: st.p}
		}
	}
	var h http.Handler = serve.NewHandler(srv, hcfg)
	if traced {
		h = &timedHandler{next: h, p: st.p}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.close()
		return nil, err
	}
	// The timeouts cmd/boosthd-serve sets by default.
	st.hs = &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second, ReadTimeout: 30 * time.Second,
		WriteTimeout: 30 * time.Second, IdleTimeout: 2 * time.Minute}
	st.done = make(chan error, 1)
	go func() { st.done <- st.hs.Serve(ln) }()
	st.url = "http://" + ln.Addr().String()
	if err := waitHealthy(st.url); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

func waitHealthy(url string) error {
	c := &http.Client{Transport: &http.Transport{Proxy: nil}, Timeout: 5 * time.Second}
	defer c.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := c.Get(url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("GET /healthz: HTTP %d", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			return err
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// close stops the HTTP server and waits for its goroutine, then drains
// the micro-batcher. The trainer runs no loop of its own (retrains are
// driven over HTTP), so it has nothing to stop.
func (st *stack) close() {
	if st.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		// A Shutdown timeout only means a connection outlived the grace;
		// Serve has returned either way.
		_ = st.hs.Shutdown(ctx)
		cancel()
		<-st.done
	}
	st.srv.Close()
}

// client is one closed-loop connection. next is its cursor into the
// call pool, kept across the warm-up and the measured window.
type client struct {
	url  string
	hc   *http.Client
	next int
}

func newClient(url string, next int) *client {
	return &client{url: url, next: next, hc: &http.Client{Transport: &http.Transport{
		Proxy: nil, MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}}
}

func (c *client) post(path string, body []byte) ([]byte, int, error) {
	resp, err := c.hc.Post(c.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return b, resp.StatusCode, err
}

// tally counts one connection's requests. lat holds the client-side
// latency, send to last byte, of every successful predict.
type tally struct {
	attempted, failed int
	rows              int
	lat               []time.Duration
	firstErr          error
}

func (t *tally) fail(err error) {
	t.failed++
	if t.firstErr == nil {
		t.firstErr = err
	}
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.rows += o.rows
	t.lat = append(t.lat, o.lat...)
	t.failed += o.failed
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

// exchange sends one call and returns the reply body, counting
// transport errors and non-200 answers as failures.
func (c *client) exchange(t *tally, cl *call) ([]byte, time.Duration, error) {
	t.attempted++
	t0 := time.Now()
	body, code, err := c.post(cl.path, cl.body)
	lat := time.Since(t0)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("%s: HTTP %d: %s", cl.path, code, bytes.TrimSpace(body))
	}
	if err != nil {
		t.fail(err)
	}
	return body, lat, err
}

// check parses a predict reply and compares it with the call's
// reference labels, or only checks each label is a class index.
func (b *bench) check(cl *call, body []byte) error {
	var ans struct {
		Label  *int  `json:"label"`
		Labels []int `json:"labels"`
	}
	if err := json.Unmarshal(body, &ans); err != nil {
		return fmt.Errorf("%s: reply %q: %w", cl.path, body, err)
	}
	got := ans.Labels
	if ans.Label != nil {
		got = []int{*ans.Label}
	}
	if len(got) != cl.rows {
		return fmt.Errorf("%s: %d labels for %d rows", cl.path, len(got), cl.rows)
	}
	for i, g := range got {
		if g < 0 || g >= b.classes {
			return fmt.Errorf("%s: label %d outside [0,%d)", cl.path, g, b.classes)
		}
		if cl.want != nil && g != cl.want[i] {
			return fmt.Errorf("%s: row %d answered %d, reference %d", cl.path, i, g, cl.want[i])
		}
	}
	return nil
}

// drive is the closed loop of one connection: it sends the next predict
// only when the previous reply has arrived, until stop reports true.
// Each predict holds b.refit's read lock, so the observe-mixed script
// can hold predicts off while a /retrain runs.
func (b *bench) drive(c *client, stop func() bool) tally {
	var t tally
	for !stop() {
		cl := &b.predicts[c.next%len(b.predicts)]
		c.next++
		b.refit.RLock()
		body, lat, err := c.exchange(&t, cl)
		b.refit.RUnlock()
		if err != nil {
			continue
		}
		if err := b.check(cl, body); err != nil {
			t.fail(err)
			continue
		}
		t.rows += cl.rows
		t.lat = append(t.lat, lat)
	}
	return t
}

// driveAll runs drive on every connection at once and returns the merged
// tally and the wall time until the last loop ended.
func (b *bench) driveAll(conns []*client, stop func() bool) (tally, time.Duration) {
	t0 := time.Now()
	tallies := make([]tally, len(conns))
	var wg sync.WaitGroup
	for k, c := range conns {
		wg.Add(1)
		go func(k int, c *client) {
			defer wg.Done()
			tallies[k] = b.drive(c, stop)
		}(k, c)
	}
	wg.Wait()
	elapsed := time.Since(t0)
	var all tally
	for _, t := range tallies {
		all.merge(t)
	}
	return all, elapsed
}

// scriptRun is what the observe-mixed script did.
type scriptRun struct {
	tally
	paused   time.Duration // time predicts were held off for refits
	retrains []time.Duration
}

// script runs the observe-mixed writer for a read window of secs:
// rounds(secs) rounds, each a block of labelled single-row /observe calls
// followed by one full /retrain, one request at a time. The observes are
// paced evenly over the window, a label stream arriving at a fixed rate,
// so the model each retrain produces depends only on the script while
// the reads get secs of traffic beside the writes.
//
// Predicts are held off while a /retrain runs, and the refit's garbage is
// collected before they resume. A refit saturates both cores and leaves
// hundreds of MB behind; reads overlapping it made the read latency
// bimodal and the peak RSS depend on where the collector happened to be.
// retrain_s reports the refits.
func (b *bench) script(c *client, secs float64) scriptRun {
	var s scriptRun
	n, per := rounds(secs), b.cfg.observesPerRound
	interval := time.Duration(secs * float64(time.Second) / float64(n*per))
	retrain := call{path: "/retrain", body: []byte("{}")}
	next := time.Now()
	for r := 0; r < n; r++ {
		for _, cl := range b.observes[r*per : (r+1)*per] {
			time.Sleep(time.Until(next))
			next = next.Add(interval)
			c.exchange(&s.tally, &cl) // a failed observe is counted; the script goes on
		}
		t0 := time.Now()
		b.refit.Lock()
		body, lat, err := c.exchange(&s.tally, &retrain)
		runtime.GC()
		b.refit.Unlock()
		paused := time.Since(t0)
		s.paused += paused
		next = next.Add(paused)
		if err != nil {
			continue
		}
		var rep serve.RetrainReport
		if err := json.Unmarshal(body, &rep); err != nil || !rep.Swapped {
			s.fail(fmt.Errorf("/retrain round %d did not swap: %s", r, bytes.TrimSpace(body)))
			continue
		}
		s.retrains = append(s.retrains, lat)
	}
	return s
}

// window is one measured interval with the counters around it.
type window struct {
	elapsed       time.Duration
	warm          tally // warm-up traffic: checked, not measured
	predict       tally
	script        scriptRun
	before, after snapshot
	spans         []obs.Span
}

// measure warms the stack up, then runs the workload's traffic for secs
// and snapshots every counter on both sides of the window. On
// observe-mixed the window lasts as long as the script, and elapsed
// counts only the time predicts were allowed to run.
func (b *bench) measure(st *stack, secs float64) (window, error) {
	conns := make([]*client, connections)
	for k := range conns {
		conns[k] = newClient(st.url, k*len(b.predicts)/connections)
		defer conns[k].hc.CloseIdleConnections()
	}
	var w window
	warmEnd := time.Now().Add(b.cfg.warmup)
	w.warm, _ = b.driveAll(conns, func() bool { return time.Now().After(warmEnd) })
	w.before = st.snapshot()
	if b.cfg.workload == observeMixed {
		var done atomic.Bool
		var reader tally
		t0 := time.Now()
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			reader = b.drive(conns[0], done.Load)
		}()
		w.script = b.script(conns[1], secs)
		done.Store(true)
		wg.Wait()
		w.elapsed = time.Since(t0) - w.script.paused
		w.predict = reader
	} else {
		end := time.Now().Add(time.Duration(secs * float64(time.Second)))
		w.predict, w.elapsed = b.driveAll(conns, func() bool { return time.Now().After(end) })
	}
	w.after = st.snapshot()
	if st.p != nil {
		n := w.after.spans - w.before.spans
		if n > uint64(ringCap(b.cfg, secs)) {
			return w, fmt.Errorf("trace ring overflowed: %d spans in the window", n)
		}
		w.spans = st.ob.Tracer.Traces(int(n))
	}
	return w, nil
}

// ringCap sizes the trace ring to hold warm-up plus window at up to
// 20000 requests per second.
func ringCap(cfg config, secs float64) int {
	return int((cfg.warmup.Seconds() + secs + 1) * 20000)
}

// accuracy scores the held-out split through /predict_batch.
func (b *bench) accuracy(st *stack, t *tally) (float64, error) {
	c := newClient(st.url, 0)
	defer c.hc.CloseIdleConnections()
	cl := call{path: "/predict_batch", body: b.accBody, rows: len(b.accY)}
	body, _, err := c.exchange(t, &cl)
	if err != nil {
		return 0, err
	}
	var ans struct {
		Labels []int `json:"labels"`
	}
	if err := json.Unmarshal(body, &ans); err != nil || len(ans.Labels) != len(b.accY) {
		err = fmt.Errorf("/predict_batch: %d labels for %d held-out rows (%v)", len(ans.Labels), len(b.accY), err)
		t.fail(err)
		return 0, err
	}
	hits := 0
	for i, l := range ans.Labels {
		if l == b.accY[i] {
			hits++
		}
	}
	return float64(hits) / float64(len(b.accY)), nil
}

// run executes the prepared workload and prints its metrics. An
// untraced run sets the stack up cfg.setups times (setup_s is the
// median) and measures the last one. A traced run measures a fresh
// untraced stack and then a fresh traced one, half the window each, so
// it can report the tracing overhead.
func (b *bench) run(out io.Writer) (result, error) {
	var all tally
	var ms metricSet
	if !b.cfg.trace {
		setups := make([]float64, b.cfg.setups)
		var st *stack
		for i := range setups {
			if st != nil {
				st.close()
			}
			runtime.GC()
			t0 := time.Now()
			var err error
			if st, err = b.start(false, 0); err != nil {
				return result{}, fmt.Errorf("set-up: %w", err)
			}
			setups[i] = time.Since(t0).Seconds()
		}
		defer st.close()
		if err := b.sameModel(st); err != nil {
			return result{}, err
		}
		w, err := b.measure(st, b.cfg.seconds)
		if err != nil {
			return result{}, err
		}
		acc, err := b.accuracy(st, &all)
		if err != nil {
			return result{}, err
		}
		rss, err := peakRSSMiB()
		if err != nil {
			return result{}, err
		}
		all.merge(w.warm)
		all.merge(w.predict)
		all.merge(w.script.tally)
		fmt.Fprintf(out, "%s: untraced, %d closed-loop connections, %.1f s window\n", b.cfg.workload, connections, w.elapsed.Seconds())
		ms = endToEnd(setups, w, acc, rss, len(b.accY))
	} else {
		half := b.cfg.seconds / 2
		var ws [2]window
		for i, traced := range []bool{false, true} {
			st, err := b.start(traced, ringCap(b.cfg, half))
			if err != nil {
				return result{}, fmt.Errorf("set-up: %w", err)
			}
			err = b.sameModel(st)
			if err == nil {
				ws[i], err = b.measure(st, half)
			}
			if err == nil {
				_, err = b.accuracy(st, &all)
			}
			st.close()
			if err != nil {
				return result{}, err
			}
			all.merge(ws[i].warm)
			all.merge(ws[i].predict)
			all.merge(ws[i].script.tally)
		}
		b.spans = ws[1].spans
		fmt.Fprintf(out, "%s: traced, %d closed-loop connections, %.1f s untraced + %.1f s traced window\n",
			b.cfg.workload, connections, ws[0].elapsed.Seconds(), ws[1].elapsed.Seconds())
		ms = layerMetrics(ws[1], rate(len(ws[0].predict.lat), ws[0].elapsed))
		printLayerTable(out, ms)
	}
	ms.print(out)
	fmt.Fprintf(out, "  %-26s %14.4f %-9s %d of %d requests failed\n", "error_frac", ratio(float64(all.failed), float64(all.attempted)), "fraction", all.failed, all.attempted)
	if all.firstErr != nil {
		fmt.Fprintf(out, "  first failure: %v\n", all.firstErr)
	}
	return result{Correct: all.failed == 0, Attempted: all.attempted, Failed: all.failed, Metrics: ms.m}, nil
}

// sameModel checks a set-up reproduced the model the reference labels
// were computed on.
func (b *bench) sameModel(st *stack) error {
	if fp := st.model.Fingerprint(); fp != b.fp {
		return fmt.Errorf("served model fingerprint %016x differs from the reference model's %016x", fp, b.fp)
	}
	return nil
}
