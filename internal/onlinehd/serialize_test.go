package onlinehd

import (
	"bytes"
	"encoding/gob"
	"strings"
	"sync"
	"testing"

	"boosthd/internal/hdc"
	"boosthd/internal/wire"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	X, y := blobs(90, 5)
	cfg := DefaultConfig(512, 3)
	cfg.Epochs = 3
	m, err := Train(X, y, nil, cfg)
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
			t.Fatalf("prediction %d differs after round trip", i)
		}
	}
}

func TestBinaryMarshalRoundTrip(t *testing.T) {
	X, y := blobs(60, 6)
	cfg := DefaultConfig(256, 3)
	cfg.Epochs = 2
	m, err := Train(X, y, nil, cfg)
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
	p1, _ := m.Predict(X[0])
	p2, err := loaded.Predict(X[0])
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("predictions differ after binary round trip")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte{1, 2, 3})); err == nil {
		t.Error("expected decode error")
	}
}

// TestSaveDuringMutationRace checkpoints while the classifier retrains
// and while fault-style mutation rewrites the class memory: the
// ReadClass deep-copy snapshot must synchronize with both. Run under
// -race.
func TestSaveDuringMutationRace(t *testing.T) {
	X, y := blobs(60, 7)
	cfg := DefaultConfig(256, 3)
	cfg.Epochs = 2
	m, err := Train(X, y, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs, err := m.Enc.EncodeBatch(X[:16])
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if err := m.HV.Fit(hs, y[:16], FitOptions{Epochs: 1}); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				m.HV.MutateClass(func(class []hdc.Vector) {
					class[0][0] += 0.5
				})
			}
		}
	}()
	for i := 0; i < 20; i++ {
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Error(err)
			break
		}
		if _, err := Load(&buf); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
}

// TestLegacyHeaderlessLoad: a v0 blob written before the magic header
// existed is rejected loudly instead of decoded.
func TestLegacyHeaderlessLoad(t *testing.T) {
	X, y := blobs(60, 8)
	cfg := DefaultConfig(192, 3)
	cfg.Epochs = 1
	m, err := Train(X, y, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	legacy := modelWire{Cfg: m.Cfg, InDim: m.Enc.InDim, Gamma: m.Enc.Gamma, Class: m.HV.Class}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&legacy); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf); err == nil || !strings.Contains(err.Error(), "missing BHDO header") {
		t.Fatalf("headerless blob: err %v, want a missing-header rejection", err)
	}
}

// TestLoadRejectsForeignAndFuture: checkpoints of another type or a
// newer format version must fail with a clear error.
func TestLoadRejectsForeignAndFuture(t *testing.T) {
	ensembleBlob := append([]byte(wire.MagicEnsemble), wire.Version)
	if _, err := Load(bytes.NewReader(ensembleBlob)); err == nil || !strings.Contains(err.Error(), "ensemble") {
		t.Fatalf("ensemble checkpoint not rejected by type: %v", err)
	}
	future := append([]byte(wire.MagicOnlineHD), wire.Version+1)
	if _, err := Load(bytes.NewReader(future)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("future-version checkpoint not rejected: %v", err)
	}
}
