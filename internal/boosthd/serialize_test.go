package boosthd

import (
	"bytes"
	"encoding/gob"
	"io"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"boosthd/internal/faults"
	"boosthd/internal/hdc"
	"boosthd/internal/onlinehd"
	"boosthd/internal/wire"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	X, y := blobs(90, 0.3, 21)
	cfg := DefaultConfig(400, 5, 3)
	cfg.Epochs = 3
	m, err := Train(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Identical predictions on every training row.
	orig, err := m.PredictBatch(X)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.PredictBatch(X)
	if err != nil {
		t.Fatal(err)
	}
	for i := range orig {
		if orig[i] != got[i] {
			t.Fatalf("prediction %d differs after round trip: %d vs %d", i, orig[i], got[i])
		}
	}
	// Alphas preserved exactly.
	for i := range m.Alphas {
		if m.Alphas[i] != loaded.Alphas[i] {
			t.Fatal("alphas differ after round trip")
		}
	}
}

func TestSaveLoadMultiScaleEncoder(t *testing.T) {
	X, y := blobs(60, 0.3, 22)
	cfg := DefaultConfig(300, 5, 3)
	cfg.Epochs = 2
	cfg.GammaSpread = 4 // exercises the spread-encoder reconstruction
	m, err := Train(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	data, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var loaded Model
	if err := loaded.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	orig, _ := m.PredictBatch(X)
	got, err := loaded.PredictBatch(X)
	if err != nil {
		t.Fatal(err)
	}
	for i := range orig {
		if orig[i] != got[i] {
			t.Fatal("multi-scale model predictions differ after round trip")
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a gob stream"))); err == nil {
		t.Error("expected decode error")
	}
}

// TestSaveDuringFaultInjectionRace exercises the headline bugfix: Save
// deep-copies each learner's class vectors under its read lock, so a
// checkpoint written while InjectClassFaults rewrites the model on
// another goroutine is never torn. Run under -race.
func TestSaveDuringFaultInjectionRace(t *testing.T) {
	X, y := blobs(60, 0.3, 23)
	cfg := DefaultConfig(256, 4, 3)
	cfg.Epochs = 2
	m, err := Train(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := faults.NewInjector(0.01, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				m.InjectClassFaults(inj)
			}
		}
	}()
	for i := 0; i < 20; i++ {
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Error(err)
			break
		}
		// Every checkpoint written mid-injection must still load cleanly.
		if _, err := Load(&buf); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
}

// TestSaveDuringFitRace saves while a learner retrains, the other mutation
// path the read-lock snapshot must synchronize with.
func TestSaveDuringFitRace(t *testing.T) {
	X, y := blobs(60, 0.3, 24)
	cfg := DefaultConfig(240, 4, 3)
	cfg.Epochs = 2
	m, err := Train(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	l := m.Learners[0]
	hs := make([]hdc.Vector, 16)
	ys := make([]int, 16)
	rng := rand.New(rand.NewSource(31))
	for i := range hs {
		hs[i] = make(hdc.Vector, l.Dim)
		for j := range hs[i] {
			hs[i][j] = rng.NormFloat64()
		}
		ys[i] = rng.Intn(cfg.Classes)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if err := l.Fit(hs, ys, onlinehd.FitOptions{Epochs: 1}); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	for i := 0; i < 20; i++ {
		if err := m.Save(io.Discard); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
}

// TestSaveSnapshotNotAliased: mutating the model after Save must not leak
// into the already-written checkpoint.
func TestSaveSnapshotNotAliased(t *testing.T) {
	X, y := blobs(60, 0.3, 25)
	cfg := DefaultConfig(240, 4, 3)
	cfg.Epochs = 2
	m, err := Train(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.PredictBatch(X)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Zero the live model entirely; the checkpoint must be unaffected.
	for _, l := range m.Learners {
		l.MutateClass(func(class []hdc.Vector) {
			for _, cv := range class {
				for j := range cv {
					cv[j] = 0
				}
			}
		})
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.PredictBatch(X)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("prediction %d differs from pre-mutation snapshot", i)
		}
	}
}

// TestLegacyHeaderlessLoad: a v0 blob (raw gob, no magic header) written
// by the pre-versioning format is rejected loudly instead of decoded.
func TestLegacyHeaderlessLoad(t *testing.T) {
	X, y := blobs(60, 0.3, 26)
	cfg := DefaultConfig(240, 4, 3)
	cfg.Epochs = 2
	m, err := Train(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	legacy := ensembleWire{
		Cfg:    m.Cfg,
		InDim:  m.inputDim,
		Gamma:  m.gamma,
		Alphas: m.Alphas,
		Class:  make([][]hdc.Vector, len(m.Learners)),
	}
	for i, l := range m.Learners {
		legacy.Class[i] = l.Class
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&legacy); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf); err == nil || !strings.Contains(err.Error(), "missing BHDE header") {
		t.Fatalf("headerless blob: err %v, want a missing-header rejection", err)
	}
}

// TestLoadRejectsForeignCheckpoints: an OnlineHD checkpoint and a
// future-version ensemble checkpoint must both fail loudly, not
// mis-decode through gob's structural matching.
func TestLoadRejectsForeignCheckpoints(t *testing.T) {
	oX, oy := onlinehdBlobs(40, 3)
	ocfg := onlinehd.DefaultConfig(128, 3)
	ocfg.Epochs = 1
	om, err := onlinehd.Train(oX, oy, nil, ocfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := om.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf); err == nil || !strings.Contains(err.Error(), "OnlineHD") {
		t.Fatalf("OnlineHD checkpoint not rejected by type: %v", err)
	}
	future := append([]byte("BHDE"), wire.Version+1)
	if _, err := Load(bytes.NewReader(future)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("future-version checkpoint not rejected: %v", err)
	}
}

// onlinehdBlobs makes a tiny labeled gaussian-blob set for the foreign
// checkpoint test (the shared blobs helper returns boosthd-shaped data).
func onlinehdBlobs(n, classes int) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(77))
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		y[i] = i % classes
		X[i] = make([]float64, 6)
		for j := range X[i] {
			X[i][j] = float64(y[i]) + 0.3*rng.NormFloat64()
		}
	}
	return X, y
}
