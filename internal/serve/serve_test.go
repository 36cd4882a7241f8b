package serve

import (
	"bytes"
	"encoding/json"
	"errors"
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
	"boosthd/internal/infer"
)

// fixture trains a small fixed-seed ensemble and returns query rows.
func fixture(t testing.TB, dim, nl int) (*boosthd.Model, [][]float64, []int) {
	t.Helper()
	rng := rand.New(rand.NewSource(4321))
	const n, features, classes = 260, 10, 3
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
	m, err := boosthd.Train(X[:180], y[:180], cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m, X[180:], y[180:]
}

// TestServeBatchedMatchesDirect: predictions through the micro-batcher
// must be identical to direct Engine.Predict, on both backends, under
// concurrent load (run with -race).
func TestServeBatchedMatchesDirect(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 4 {
		runtime.GOMAXPROCS(4)
	}
	m, X, _ := fixture(t, 480, 4)
	engines := map[string]*infer.Engine{"float": infer.NewEngine(m)}
	be, err := infer.NewBinaryEngine(m)
	if err != nil {
		t.Fatal(err)
	}
	engines["binary"] = be
	for name, eng := range engines {
		t.Run(name, func(t *testing.T) {
			want := make([]int, len(X))
			for i := range X {
				p, err := eng.PredictBatch(X[i : i+1])
				if err != nil {
					t.Fatal(err)
				}
				want[i] = p[0]
			}
			s, err := NewServer(eng, Config{MaxBatch: 16, MaxWait: 2 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			got := make([]int, len(X))
			var wg sync.WaitGroup
			errs := make(chan error, len(X))
			for i := range X {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					p, err := s.Predict(X[i])
					if err != nil {
						errs <- err
						return
					}
					got[i] = p
				}(i)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("row %d: batched %d != direct %d", i, got[i], want[i])
				}
			}
			if st := s.Stats(); st.Served != uint64(len(X)) {
				t.Fatalf("served %d, want %d", st.Served, len(X))
			}
		})
	}
}

// TestServeCoalesces: concurrent requests must actually share batches,
// not degrade to one engine call per request.
func TestServeCoalesces(t *testing.T) {
	m, X, _ := fixture(t, 320, 4)
	s, err := NewServer(infer.NewEngine(m), Config{MaxBatch: 32, MaxWait: 20 * time.Millisecond, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var wg sync.WaitGroup
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := s.Predict(X[i%len(X)]); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	st := s.Stats()
	if st.MeanBatch < 2 {
		t.Fatalf("mean batch %.2f (served %d in %d batches): batcher not coalescing",
			st.MeanBatch, st.Served, st.Batches)
	}
}

// TestServeHotSwapZeroDrop: swapping engines under sustained load must
// not drop or fail a single request (acceptance criterion), and every
// batch must land on a coherent engine.
func TestServeHotSwapZeroDrop(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 4 {
		runtime.GOMAXPROCS(4)
	}
	m, X, _ := fixture(t, 480, 4)
	fe := infer.NewEngine(m)
	be, err := infer.NewBinaryEngine(m)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(fe, Config{MaxBatch: 16, MaxWait: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const clients = 8
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
				label, err := s.Predict(X[(c+i)%len(X)])
				if err != nil || label < 0 || label >= m.Cfg.Classes {
					failed.Add(1)
					return
				}
				completed.Add(1)
			}
		}(c)
	}
	// Swap back and forth while the clients hammer the server.
	swaps := 0
	deadline := time.After(400 * time.Millisecond)
swapLoop:
	for {
		select {
		case <-deadline:
			break swapLoop
		default:
		}
		eng := fe
		if swaps%2 == 0 {
			eng = be
		}
		if err := s.Swap(eng); err != nil {
			t.Fatal(err)
		}
		swaps++
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if failed.Load() != 0 {
		t.Fatalf("%d requests failed across %d hot swaps", failed.Load(), swaps)
	}
	if completed.Load() == 0 || swaps < 10 {
		t.Fatalf("weak test run: %d requests, %d swaps", completed.Load(), swaps)
	}
	if got := s.Stats().Swaps; got != uint64(swaps) {
		t.Fatalf("stats count %d swaps, want %d", got, swaps)
	}
}

// TestServeGracefulDrain: Close serves everything already accepted and
// rejects everything after.
func TestServeGracefulDrain(t *testing.T) {
	m, X, _ := fixture(t, 320, 4)
	s, err := NewServer(infer.NewEngine(m), Config{MaxBatch: 8, MaxWait: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var served atomic.Uint64
	for i := 0; i < 40; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := s.Predict(X[i%len(X)]); err == nil {
				served.Add(1)
			} else if err != ErrClosed {
				t.Errorf("drain returned %v", err)
			}
		}(i)
	}
	time.Sleep(2 * time.Millisecond)
	s.Close()
	wg.Wait()
	if _, err := s.Predict(X[0]); err != ErrClosed {
		t.Fatalf("predict after close: %v, want ErrClosed", err)
	}
	if _, err := s.PredictBatch(X[:2]); err != ErrClosed {
		t.Fatalf("batch after close: %v, want ErrClosed", err)
	}
	// Nothing accepted may have been dropped: the server's own counter
	// must match the successful client count.
	if st := s.Stats(); st.Served != served.Load() {
		t.Fatalf("server served %d, clients saw %d", st.Served, served.Load())
	}
}

// TestServeHTTP exercises the four endpoints end to end, including a hot
// swap from a float checkpoint to a cold-loaded binary snapshot.
func TestServeHTTP(t *testing.T) {
	m, X, _ := fixture(t, 320, 4)
	eng := infer.NewEngine(m)
	s, err := NewServer(eng, Config{MaxBatch: 8, MaxWait: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ckptDir := t.TempDir()
	ts := httptest.NewServer(NewHandler(s, HandlerConfig{CheckpointDir: ckptDir}))
	defer ts.Close()

	post := func(path string, body any) (*http.Response, []byte) {
		t.Helper()
		raw, _ := json.Marshal(body)
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp, buf.Bytes()
	}

	wants, err := eng.PredictBatch(X[:1])
	if err != nil {
		t.Fatal(err)
	}
	want := wants[0]
	resp, body := post("/predict", map[string]any{"features": X[0]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/predict: %d %s", resp.StatusCode, body)
	}
	var one struct {
		Label int `json:"label"`
	}
	if err := json.Unmarshal(body, &one); err != nil {
		t.Fatal(err)
	}
	if one.Label != want {
		t.Fatalf("/predict label %d, want %d", one.Label, want)
	}

	resp, body = post("/predict_batch", map[string]any{"rows": X[:8]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/predict_batch: %d %s", resp.StatusCode, body)
	}
	var batch struct {
		Labels []int `json:"labels"`
	}
	if err := json.Unmarshal(body, &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Labels) != 8 || batch.Labels[0] != want {
		t.Fatalf("/predict_batch labels %v", batch.Labels)
	}

	// Write a binary snapshot checkpoint into the allowlist root and
	// hot-swap to it by name.
	bm, err := infer.Quantize(m)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(filepath.Join(ckptDir, "model.bhdb"))
	if err != nil {
		t.Fatal(err)
	}
	if err := bm.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	resp, body = post("/swap", map[string]string{"checkpoint": "model.bhdb", "backend": "binary"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/swap: %d %s", resp.StatusCode, body)
	}
	if s.Engine().Backend() != infer.PackedBinary {
		t.Fatal("swap did not install the binary engine")
	}
	wantBins, err := s.Engine().PredictBatch(X[:1])
	if err != nil {
		t.Fatal(err)
	}
	wantBin := wantBins[0]
	resp, body = post("/predict", map[string]any{"features": X[0]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/predict after swap: %d %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &one); err != nil {
		t.Fatal(err)
	}
	if one.Label != wantBin {
		t.Fatalf("post-swap label %d, want %d", one.Label, wantBin)
	}

	// Swapping a missing checkpoint must fail without disturbing serving.
	resp, _ = post("/swap", map[string]string{"checkpoint": "nope.bhde", "backend": "float"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("/swap missing checkpoint: %d", resp.StatusCode)
	}

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var health struct {
		Status  string `json:"status"`
		Backend string `json:"backend"`
		Served  uint64 `json:"served"`
		Swaps   uint64 `json:"swaps"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Backend != "packed-binary" || health.Served == 0 || health.Swaps != 1 {
		t.Fatalf("healthz %+v", health)
	}

	if resp, err := http.Get(ts.URL + "/predict"); err != nil {
		t.Fatal(err)
	} else if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /predict: %d", resp.StatusCode)
	}
}

// TestServeBadInputIsolated: a malformed request fails alone with
// ErrBadInput — it is rejected before enqueueing, so it cannot poison
// the batch the concurrent valid requests coalesce into.
func TestServeBadInputIsolated(t *testing.T) {
	m, X, _ := fixture(t, 320, 4)
	s, err := NewServer(infer.NewEngine(m), Config{MaxBatch: 16, MaxWait: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var wg sync.WaitGroup
	var badErrs, goodErrs atomic.Uint64
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				// Wrong feature width: must fail as a client error.
				if _, err := s.Predict(X[0][:3]); errors.Is(err, ErrBadInput) {
					badErrs.Add(1)
				}
				return
			}
			if _, err := s.Predict(X[i%len(X)]); err != nil {
				goodErrs.Add(1)
			}
		}(i)
	}
	wg.Wait()
	if badErrs.Load() != 8 {
		t.Fatalf("%d of 8 malformed requests returned ErrBadInput", badErrs.Load())
	}
	if goodErrs.Load() != 0 {
		t.Fatalf("%d valid requests failed alongside malformed ones", goodErrs.Load())
	}
	// The server must still serve afterwards.
	if _, err := s.Predict(X[0]); err != nil {
		t.Fatalf("server wedged after bad input: %v", err)
	}
}

// TestSwapIf: the compare-and-swap install must refuse a stale rebuild
// (the reliability monitor's contract for not reverting concurrent
// operator/trainer swaps) and leave the counters untouched on refusal.
func TestSwapIf(t *testing.T) {
	m, _, _ := fixture(t, 320, 4)
	orig := infer.NewEngine(m)
	s, err := NewServer(orig, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.ModelVersion(); got != 1 {
		t.Fatalf("fresh server version %d, want 1", got)
	}
	next := infer.NewEngine(m)
	swapped, err := s.SwapIf(orig, next)
	if err != nil || !swapped {
		t.Fatalf("SwapIf from current engine: swapped=%v err=%v", swapped, err)
	}
	if got := s.ModelVersion(); got != 2 {
		t.Fatalf("post-swap version %d, want 2", got)
	}
	// A stale rebuild derived from orig must not revert next.
	stale := infer.NewEngine(m)
	swapped, err = s.SwapIf(orig, stale)
	if err != nil || swapped {
		t.Fatalf("stale SwapIf: swapped=%v err=%v", swapped, err)
	}
	if s.Engine() != next || s.ModelVersion() != 2 {
		t.Fatalf("stale SwapIf disturbed the serving engine or version")
	}
	if _, err := s.SwapIf(next, nil); err == nil {
		t.Fatal("nil engine accepted")
	}
}
