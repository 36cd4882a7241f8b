package infer

import (
	"bytes"
	"encoding/gob"
	"strings"
	"testing"

	"boosthd/internal/boosthd"
	"boosthd/internal/hdc"
	"boosthd/internal/wire"
)

// TestBinarySnapshotRoundTrip is the binary-backend regression fixture:
// a quantized model saved and cold-loaded (no re-quantization, no float
// class memory) must predict identically to its source, row by row.
func TestBinarySnapshotRoundTrip(t *testing.T) {
	m, X, _ := fixture(t, 640, 5)
	bm, err := Quantize(m)
	if err != nil {
		t.Fatal(err)
	}
	want, err := bm.PredictBatch(X)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := bm.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.Frozen() {
		t.Fatal("cold-loaded binary model not frozen")
	}
	if loaded.Bits() != bm.Bits() {
		t.Fatalf("loaded memory %d bits, want %d", loaded.Bits(), bm.Bits())
	}
	got, err := loaded.PredictBatch(X)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("prediction %d differs after binary round trip: %d vs %d", i, want[i], got[i])
		}
	}
	// Refresh on a frozen model must be a no-op, not a re-threshold of
	// the zeroed shell.
	loaded.Refresh()
	if loaded.Stale() {
		t.Fatal("frozen model reports stale")
	}
	again, err := loaded.PredictBatch(X)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if want[i] != again[i] {
			t.Fatal("frozen model predictions changed after Refresh")
		}
	}
	// Engine wrapper routes through the binary backend.
	eng := NewEngineFromBinary(loaded)
	if eng.Backend() != PackedBinary || eng.Binary() != loaded {
		t.Fatal("engine-from-binary wiring broken")
	}
	p, err := eng.PredictBatch(X[:1])
	if err != nil {
		t.Fatal(err)
	}
	if p[0] != want[0] {
		t.Fatalf("engine predict %d, want %d", p[0], want[0])
	}
}

// TestCheckpointBackendsAgreeAfterLoad is the cross-format regression
// fixture: a float checkpoint reloaded from disk must reproduce the
// source model's predictions on both backends.
func TestCheckpointBackendsAgreeAfterLoad(t *testing.T) {
	m, X, _ := fixture(t, 512, 4)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := boosthd.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	wantF, err := NewEngine(m).PredictBatch(X)
	if err != nil {
		t.Fatal(err)
	}
	gotF, err := NewEngine(loaded).PredictBatch(X)
	if err != nil {
		t.Fatal(err)
	}
	be, err := NewBinaryEngine(m)
	if err != nil {
		t.Fatal(err)
	}
	wantB, err := be.PredictBatch(X)
	if err != nil {
		t.Fatal(err)
	}
	le, err := NewBinaryEngine(loaded)
	if err != nil {
		t.Fatal(err)
	}
	gotB, err := le.PredictBatch(X)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantF {
		if wantF[i] != gotF[i] {
			t.Fatalf("float prediction %d differs after checkpoint reload", i)
		}
		if wantB[i] != gotB[i] {
			t.Fatalf("binary prediction %d differs after checkpoint reload", i)
		}
	}
}

// TestLoadBinaryRejectsForeignAndCorrupt: wrong checkpoint types and
// geometry-corrupted blobs fail at load, not inside the scoring loop.
func TestLoadBinaryRejectsForeignAndCorrupt(t *testing.T) {
	m, _, _ := fixture(t, 320, 4)
	var float bytes.Buffer
	if err := m.Save(&float); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBinary(&float); err == nil || !strings.Contains(err.Error(), "ensemble") {
		t.Fatalf("float checkpoint not rejected by type: %v", err)
	}
	if _, err := LoadBinary(strings.NewReader("garbage bytes here")); err == nil {
		t.Fatal("garbage accepted as binary snapshot")
	}
	future := append([]byte(wire.MagicBinary), wire.Version+1)
	if _, err := LoadBinary(bytes.NewReader(future)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("future version not rejected: %v", err)
	}

	// Corrupt the stored geometry: truncate one sign plane's words.
	bm, err := Quantize(m)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := rewriteSnapshot(t, bm, func(bw *binaryWire) {
		bw.Class[1][0].Words = bw.Class[1][0].Words[:1]
	})
	if _, err := LoadBinary(corrupt); err == nil || !strings.Contains(err.Error(), "sign") {
		t.Fatalf("corrupt sign plane not rejected: %v", err)
	}

	// Set a padding bit of one plane: segments are 80 dimensions wide, so
	// bits 16-63 of each plane's second word lie past the segment, and the
	// scoring kernels would count them as dimensions.
	for _, what := range []string{"sign", "mask"} {
		padded := rewriteSnapshot(t, bm, func(bw *binaryWire) {
			p := bw.Class[2][1]
			if what == "mask" {
				p = bw.Mask[2][1]
			}
			p.Words[len(p.Words)-1] |= 1 << 63
		})
		if _, err := LoadBinary(padded); err == nil || !strings.Contains(err.Error(), what+" plane sets bits past") {
			t.Fatalf("%s plane with padding bits set not rejected: %v", what, err)
		}
	}
}

// rewriteSnapshot saves bm, applies edit to the decoded wire payload and
// frames it again at the same version: a snapshot no writer produces.
func rewriteSnapshot(t *testing.T, bm *BinaryModel, edit func(*binaryWire)) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	if err := bm.Save(&buf); err != nil {
		t.Fatal(err)
	}
	v, body, err := wire.ReadHeader(&buf, wire.MagicBinary)
	if err != nil {
		t.Fatal(err)
	}
	var bw binaryWire
	if err := gob.NewDecoder(body).Decode(&bw); err != nil {
		t.Fatal(err)
	}
	edit(&bw)
	var out bytes.Buffer
	if err := wire.WriteHeaderVersion(&out, wire.MagicBinary, v); err != nil {
		t.Fatal(err)
	}
	if err := gob.NewEncoder(&out).Encode(&bw); err != nil {
		t.Fatal(err)
	}
	return &out
}

// TestBinarySaveAfterMutation: Save must persist what the predict paths
// would serve — a save issued after the float model mutated re-quantizes
// first instead of writing the stale pre-mutation snapshot.
func TestBinarySaveAfterMutation(t *testing.T) {
	m, X, _ := fixture(t, 512, 4)
	bm, err := Quantize(m)
	if err != nil {
		t.Fatal(err)
	}
	// Mutate the float model with no intervening predict call.
	for _, l := range m.Learners {
		l.MutateClass(func(class []hdc.Vector) {
			for _, cv := range class {
				for j := range cv {
					cv[j] = -cv[j]
				}
			}
		})
	}
	var buf bytes.Buffer
	if err := bm.Save(&buf); err != nil {
		t.Fatal(err)
	}
	want, err := bm.PredictBatch(X) // serves the post-mutation snapshot
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.PredictBatch(X)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("prediction %d: saved snapshot diverges from live model after mutation", i)
		}
	}
}
