package trainer

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"boosthd/internal/boosthd"
	"boosthd/internal/hdc"
	"boosthd/internal/infer"
	"boosthd/internal/serve"
)

// fixture trains a small fixed-seed ensemble and returns normalized
// rows/labels beyond the training set for streaming.
func fixture(t testing.TB, dim, nl int) (*boosthd.Model, [][]float64, []int) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	const n, features, classes = 420, 10, 3
	centers := make([][]float64, classes)
	for c := range centers {
		mu := make([]float64, features)
		for j := range mu {
			mu[j] = rng.NormFloat64() * 1.2
		}
		centers[c] = mu
	}
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		c := i % classes
		row := make([]float64, features)
		for j := range row {
			row[j] = centers[c][j] + rng.NormFloat64()*0.8
		}
		X[i] = row
		y[i] = c
	}
	for j := 0; j < features; j++ {
		var mean, sq float64
		for i := range X {
			mean += X[i][j]
		}
		mean /= float64(n)
		for i := range X {
			d := X[i][j] - mean
			sq += d * d
		}
		std := 1.0
		if sq > 0 {
			std = math.Sqrt(sq / float64(n))
		}
		for i := range X {
			X[i][j] = (X[i][j] - mean) / std
		}
	}
	cfg := boosthd.DefaultConfig(dim, nl, classes)
	cfg.Epochs = 3
	cfg.Seed = 7
	m, err := boosthd.Train(X[:200], y[:200], cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m, X[200:], y[200:]
}

// TestObserveValidatesAndBuffers: bad labels and widths are client
// errors wrapping serve.ErrBadInput; good samples land in the buffer
// and (by default) nudge the live model.
func TestObserveValidatesAndBuffers(t *testing.T) {
	m, X, y := fixture(t, 240, 4)
	srv, err := serve.NewServer(infer.NewEngine(m), serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tr, err := New(srv, Config{BufferCap: 32})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Observe(X[0], -1); !errors.Is(err, serve.ErrBadInput) {
		t.Fatalf("bad label: %v, want ErrBadInput", err)
	}
	if err := tr.Observe(X[0][:3], 0); !errors.Is(err, serve.ErrBadInput) {
		t.Fatalf("bad width: %v, want ErrBadInput", err)
	}
	for i := range X[:40] {
		if err := tr.Observe(X[i], y[i]); err != nil {
			t.Fatal(err)
		}
	}
	st := tr.Status()
	if st.Observed != 40 || st.Buffered == 0 || st.Buffered > 32 {
		t.Fatalf("status %+v", st)
	}
}

// TestRetrainSwapMatchesColdLoad is the acceptance pin: a trainer-driven
// retrain+swap must serve predictions identical to a cold-loaded
// checkpoint of the same retrain — the hot path and the offline path
// produce the same model.
func TestRetrainSwapMatchesColdLoad(t *testing.T) {
	m, X, y := fixture(t, 240, 4)
	srv, err := serve.NewServer(infer.NewEngine(m), serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tr, err := New(srv, Config{BufferCap: 256, MinRetrain: 32})
	if err != nil {
		t.Fatal(err)
	}
	for i := range X[:120] {
		if err := tr.Observe(X[i], y[i]); err != nil {
			t.Fatal(err)
		}
	}

	// Cold path: clone the trainer's current model (post incremental
	// updates), refit it offline over exactly the buffered data, round-trip
	// it through a checkpoint file, and serve it from the cold load.
	shell := tr.Model().Clone()
	bufX, bufY := tr.buf.Snapshot()
	if err := shell.Refit(bufX, bufY); err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), "retrained.bhde")
	f, err := os.Create(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if err := shell.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	cold, err := serve.LoadEngine(ckpt, "float")
	if err != nil {
		t.Fatal(err)
	}

	// Hot path: trainer refits over its buffer and swaps.
	report, err := tr.Retrain()
	if err != nil {
		t.Fatal(err)
	}
	if !report.Swapped || report.Samples != len(bufX) {
		t.Fatalf("report %+v, want swap over %d samples", report, len(bufX))
	}
	if got := srv.Stats().Swaps; got != 1 {
		t.Fatalf("server saw %d swaps, want 1", got)
	}

	hot, err := srv.PredictBatch(X[120:])
	if err != nil {
		t.Fatal(err)
	}
	want, err := cold.PredictBatch(X[120:])
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if hot[i] != want[i] {
			t.Fatalf("row %d: hot-swapped %d != cold-loaded %d", i, hot[i], want[i])
		}
	}
}

// TestNewRejectsFrozenSnapshot: a trainer over a cold-loaded binary
// snapshot would train a shell model serving never re-quantizes from —
// construction must fail loudly instead.
func TestNewRejectsFrozenSnapshot(t *testing.T) {
	m, _, _ := fixture(t, 240, 4)
	bm, err := infer.Quantize(m)
	if err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := bm.Save(&snap); err != nil {
		t.Fatal(err)
	}
	cold, err := infer.LoadBinary(&snap)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.NewServer(infer.NewEngineFromBinary(cold), serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := New(srv, Config{}); err == nil {
		t.Fatal("trainer over a frozen binary snapshot was accepted")
	}
}

// TestObserveBatchAllOrNothing: a bad row mid-batch must reject the
// whole batch before anything is buffered or applied, so a client
// retry cannot double-ingest the valid prefix.
func TestObserveBatchAllOrNothing(t *testing.T) {
	m, X, y := fixture(t, 240, 4)
	srv, err := serve.NewServer(infer.NewEngine(m), serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tr, err := New(srv, Config{BufferCap: 64})
	if err != nil {
		t.Fatal(err)
	}
	rows := [][]float64{X[0], X[1], X[2][:4], X[3]} // row 2 has the wrong width
	if err := tr.ObserveBatch(rows, []int{0, 1, 2, 0}); !errors.Is(err, serve.ErrBadInput) {
		t.Fatalf("bad batch: %v, want ErrBadInput", err)
	}
	if err := tr.ObserveBatch(X[:3], []int{0, 9, 1}); !errors.Is(err, serve.ErrBadInput) {
		t.Fatalf("bad label batch: %v, want ErrBadInput", err)
	}
	if st := tr.Status(); st.Observed != 0 || st.Buffered != 0 {
		t.Fatalf("rejected batches left state behind: %+v", st)
	}
	if err := tr.ObserveBatch(X[:4], y[:4]); err != nil {
		t.Fatal(err)
	}
	if st := tr.Status(); st.Observed != 4 || st.Buffered != 4 {
		t.Fatalf("good batch not ingested: %+v", st)
	}
}

// TestAdoptKeepsTrainerInSync: adopting an operator-swapped engine must
// both install it in the server and re-point the trainer, so the next
// retrain refits the adopted model rather than reverting it.
func TestAdoptKeepsTrainerInSync(t *testing.T) {
	m, X, y := fixture(t, 240, 4)
	srv, err := serve.NewServer(infer.NewEngine(m), serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tr, err := New(srv, Config{BufferCap: 256, MinRetrain: 32})
	if err != nil {
		t.Fatal(err)
	}

	// An "operator checkpoint": an independently refitted clone.
	other := m.Clone()
	if err := other.Refit(X[:100], y[:100]); err != nil {
		t.Fatal(err)
	}
	eng := infer.NewEngine(other)
	if err := tr.Adopt(eng); err != nil {
		t.Fatal(err)
	}
	if srv.Engine() != eng {
		t.Fatal("adopt did not install the engine")
	}
	if tr.Model() != other {
		t.Fatal("adopt did not re-point the trainer")
	}

	// A mismatched model is refused before anything swaps.
	cfg := boosthd.DefaultConfig(240, 4, 2)
	cfg.Epochs = 2
	cfg.Seed = 3
	twoClassY := make([]int, 100)
	for i := range twoClassY {
		twoClassY[i] = i % 2
	}
	mismatch, err := boosthd.Train(X[:100], twoClassY, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Adopt(infer.NewEngine(mismatch)); !errors.Is(err, serve.ErrBadInput) {
		t.Fatalf("class-count mismatch adopted: %v", err)
	}
	if tr.Model() != other || srv.Engine() != eng {
		t.Fatal("failed adopt disturbed trainer or server state")
	}
}

// TestAlphaOnlyRetrain: Mode "alphas" keeps the learners' class
// memories (shaped by online updates) and swaps in a model whose
// importance weights were re-scored over the buffer.
func TestAlphaOnlyRetrain(t *testing.T) {
	m, X, y := fixture(t, 240, 4)
	srv, err := serve.NewServer(infer.NewEngine(m), serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tr, err := New(srv, Config{BufferCap: 256, MinRetrain: 32, Mode: "alphas"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(srv, Config{Mode: "bogus"}); err == nil {
		t.Fatal("bogus mode accepted")
	}
	for i := range X[:80] {
		if err := tr.Observe(X[i], y[i]); err != nil {
			t.Fatal(err)
		}
	}
	report, err := tr.Retrain()
	if err != nil {
		t.Fatal(err)
	}
	if !report.Swapped || report.Mode != "alphas" {
		t.Fatalf("report %+v", report)
	}
	if srv.Stats().Swaps != 1 {
		t.Fatalf("swaps %d, want 1", srv.Stats().Swaps)
	}
	// The swapped-in view shares the live class memories, so streaming
	// updates after (or during) the reweight are never lost to the swap.
	served := srv.Engine().Model()
	if served.Learners[0] != m.Learners[0] {
		t.Fatal("alphas-mode swap installed a detached class memory")
	}
}

// TestRetrainBusy: a retrain finding another in flight answers ErrBusy
// immediately instead of queueing behind the lock, without counting a
// failure.
func TestRetrainBusy(t *testing.T) {
	m, _, _ := fixture(t, 240, 4)
	srv, err := serve.NewServer(infer.NewEngine(m), serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tr, err := New(srv, Config{})
	if err != nil {
		t.Fatal(err)
	}
	tr.retrainMu.Lock()
	report, err := tr.Retrain()
	tr.retrainMu.Unlock()
	if !errors.Is(err, serve.ErrBusy) || report.Swapped {
		t.Fatalf("concurrent retrain: %+v, %v; want ErrBusy", report, err)
	}
	if st := tr.Status(); st.RetrainFailures != 0 {
		t.Fatalf("busy counted as failure: %+v", st)
	}
}

// TestRetrainSkipsThinBuffer: below MinRetrain, or with a single-class
// buffer, Retrain reports Swapped=false without touching the server.
func TestRetrainSkipsThinBuffer(t *testing.T) {
	m, X, _ := fixture(t, 240, 4)
	srv, err := serve.NewServer(infer.NewEngine(m), serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tr, err := New(srv, Config{MinRetrain: 16})
	if err != nil {
		t.Fatal(err)
	}
	report, err := tr.Retrain()
	if err != nil || report.Swapped {
		t.Fatalf("empty-buffer retrain: %+v, %v", report, err)
	}
	for i := 0; i < 20; i++ {
		if err := tr.Observe(X[i], 1); err != nil { // one class only
			t.Fatal(err)
		}
	}
	report, err = tr.Retrain()
	if err != nil || report.Swapped {
		t.Fatalf("single-class retrain: %+v, %v", report, err)
	}
	if srv.Stats().Swaps != 0 {
		t.Fatalf("skipped retrains swapped %d times", srv.Stats().Swaps)
	}
}

// TestTrainerSwapUnderLoad is the zero-drop acceptance pin, run with
// -race: 64 clients hammer the micro-batcher while the trainer streams
// observations (incremental updates against live serving) and performs
// hot retrain+swap cycles on both backends. Not a single request may
// fail, and every performed retrain must register as a server swap.
func TestTrainerSwapUnderLoad(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 4 {
		runtime.GOMAXPROCS(4)
	}
	for _, backend := range []string{"float", "binary"} {
		t.Run(backend, func(t *testing.T) {
			m, X, y := fixture(t, 240, 4)
			srv, err := serve.NewServer(infer.NewEngine(m), serve.Config{MaxBatch: 16, MaxWait: time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			tr, err := New(srv, Config{BufferCap: 256, MinRetrain: 32, Backend: backend})
			if err != nil {
				t.Fatal(err)
			}

			const clients = 64
			stop := make(chan struct{})
			var completed, failed atomic.Uint64
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						label, err := srv.Predict(X[(c+i)%len(X)])
						if err != nil || label < 0 || label >= m.Cfg.Classes {
							failed.Add(1)
							return
						}
						completed.Add(1)
					}
				}(c)
			}

			retrains := 0
			deadline := time.After(500 * time.Millisecond)
			i := 0
		loadLoop:
			for {
				select {
				case <-deadline:
					break loadLoop
				default:
				}
				for k := 0; k < 8; k++ {
					if err := tr.Observe(X[i%len(X)], y[i%len(X)]); err != nil {
						t.Error(err)
					}
					i++
				}
				if i%64 == 0 {
					report, err := tr.Retrain()
					if err != nil {
						t.Error(err)
					}
					if report.Swapped {
						retrains++
					}
				}
			}
			close(stop)
			wg.Wait()
			if failed.Load() != 0 {
				t.Fatalf("%d requests failed across %d retrain swaps", failed.Load(), retrains)
			}
			if completed.Load() == 0 || retrains == 0 {
				t.Fatalf("weak run: %d requests, %d retrains", completed.Load(), retrains)
			}
			if got := srv.Stats().Swaps; got != uint64(retrains) {
				t.Fatalf("server saw %d swaps, trainer performed %d", got, retrains)
			}
			if st := tr.Status(); st.Retrains != uint64(retrains) || st.Observed == 0 {
				t.Fatalf("trainer status %+v, want %d retrains", st, retrains)
			}
		})
	}
}

// TestTrainerOverHTTP is the in-process version of the CI smoke job:
// /observe streams labeled samples, /retrain triggers a refit, and
// /healthz reports the swap — end to end through the real transport.
func TestTrainerOverHTTP(t *testing.T) {
	m, X, y := fixture(t, 240, 4)
	srv, err := serve.NewServer(infer.NewEngine(m), serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tr, err := New(srv, Config{BufferCap: 256, MinRetrain: 32})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(serve.NewHandler(srv, serve.HandlerConfig{Trainer: tr}))
	defer ts.Close()

	post := func(path string, body any) *http.Response {
		t.Helper()
		raw, _ := json.Marshal(body)
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	if resp := post("/observe", map[string]any{"rows": X[:64], "labels": y[:64]}); resp.StatusCode != http.StatusOK {
		t.Fatalf("/observe: %d", resp.StatusCode)
	}
	resp := post("/retrain", map[string]any{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/retrain: %d", resp.StatusCode)
	}
	var report serve.RetrainReport
	if err := json.NewDecoder(resp.Body).Decode(&report); err != nil {
		t.Fatal(err)
	}
	if !report.Swapped {
		t.Fatalf("retrain did not swap: %+v", report)
	}

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var health struct {
		Swaps   uint64              `json:"swaps"`
		Trainer serve.TrainerStatus `json:"trainer"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Swaps != 1 || health.Trainer.Observed != 64 || health.Trainer.Retrains != 1 {
		t.Fatalf("healthz after retrain: %+v", health)
	}
}

// TestBackgroundLoop: Start/Stop run retrains on the period and stop
// cleanly; a stopped trainer can be started again.
func TestBackgroundLoop(t *testing.T) {
	m, X, y := fixture(t, 240, 4)
	srv, err := serve.NewServer(infer.NewEngine(m), serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tr, err := New(srv, Config{BufferCap: 256, MinRetrain: 32, RetrainEvery: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for i := range X[:64] {
		if err := tr.Observe(X[i], y[i]); err != nil {
			t.Fatal(err)
		}
	}
	tr.Start()
	deadline := time.Now().Add(2 * time.Second)
	for tr.Status().Retrains == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	tr.StopWait(0)
	tr.StopWait(0) // idempotent
	if tr.Status().Retrains == 0 {
		t.Fatal("background loop never retrained")
	}
}

// TestOverflowingFeaturesRejectedOverHTTP: a row carrying a 1e308
// feature — finite, but enough to overflow a projection — is refused
// with 400 at admission by /predict, /predict_batch and /observe (single
// and batch). Nothing is observed, the model version does not move,
// class memory stays finite, and valid requests sent concurrently, which
// the batcher may coalesce with the rejected ones, still get their
// labels.
func TestOverflowingFeaturesRejectedOverHTTP(t *testing.T) {
	m, X, _ := fixture(t, 240, 4)
	eng := infer.NewEngine(m)
	want, err := eng.PredictBatch(X[:16])
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.NewServer(eng, serve.Config{MaxBatch: 8, MaxWait: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tr, err := New(srv, Config{BufferCap: 64})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(serve.NewHandler(srv, serve.HandlerConfig{Trainer: tr}))
	defer ts.Close()
	post := func(path string, body any) (int, []byte) {
		raw, _ := json.Marshal(body)
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(raw))
		if err != nil {
			return 0, []byte(err.Error())
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.Bytes()
	}

	bad := append([]float64(nil), X[0]...)
	bad[3] = 1e308
	version := srv.ModelVersion()

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(want); i += 4 {
				code, body := post("/predict", map[string]any{"features": X[i]})
				var got struct{ Label int }
				if code != http.StatusOK || json.Unmarshal(body, &got) != nil || got.Label != want[i] {
					errs <- fmt.Errorf("valid row %d: %d %s, want label %d", i, code, body, want[i])
				}
			}
		}(c)
	}
	for _, r := range []struct {
		path string
		body any
	}{
		{"/predict", map[string]any{"features": bad}},
		{"/predict_batch", map[string]any{"rows": [][]float64{X[1], bad}}},
		{"/observe", map[string]any{"features": bad, "label": 0}},
		{"/observe", map[string]any{"rows": [][]float64{X[1], bad}, "labels": []int{0, 1}}},
	} {
		for k := 0; k < 4; k++ {
			if code, body := post(r.path, r.body); code != http.StatusBadRequest {
				t.Errorf("%s with a 1e308 feature: %d %s, want 400", r.path, code, body)
			}
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	if got := srv.ModelVersion(); got != version {
		t.Fatalf("model version %d after rejected requests, want %d", got, version)
	}
	if st := tr.Status(); st.Observed != 0 {
		t.Fatalf("%d samples observed from rejected requests", st.Observed)
	}
	for i, l := range m.Learners {
		l.ReadClass(func(class []hdc.Vector, _ uint64) {
			for c, cv := range class {
				for k, v := range cv {
					if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
						t.Fatalf("learner %d class %d component %d is %v", i, c, k, v)
					}
				}
			}
		})
	}
}
