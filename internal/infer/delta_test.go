package infer

import (
	"bytes"
	"testing"

	"boosthd/internal/boosthd"
	"boosthd/internal/hdc"
	"boosthd/internal/onlinehd"
)

// reloadBinary round-trips a quantized snapshot through Save/LoadBinary,
// producing the frozen engine a deployment cold-start would serve.
func reloadBinary(t *testing.T, bm *BinaryModel) *Engine {
	t.Helper()
	var buf bytes.Buffer
	if err := bm.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return NewEngineFromBinary(loaded)
}

// tenantDelta refits the given learners on (X, y) — the same
// personalization path the tenant trainer runs.
func tenantDelta(t *testing.T, m *boosthd.Model, idx []int, X [][]float64, y []int) *boosthd.Delta {
	t.Helper()
	H, err := m.Enc.EncodeBatch(X)
	if err != nil {
		t.Fatal(err)
	}
	segs := m.Segments()
	d := &boosthd.Delta{Learners: map[int]*onlinehd.HVClassifier{}}
	for _, i := range idx {
		lo, hi := segs[i][0], segs[i][1]
		hv, err := onlinehd.NewHVClassifier(hi-lo, m.Cfg.Classes, m.Cfg.LR)
		if err != nil {
			t.Fatal(err)
		}
		sub := make([]hdc.Vector, len(H))
		for r, h := range H {
			sub[r] = h[lo:hi]
		}
		if err := hv.Fit(sub, y, onlinehd.FitOptions{Epochs: 2}); err != nil {
			t.Fatal(err)
		}
		d.Learners[i] = hv
	}
	return d
}

// materializeModel deep-copies the base with the delta substituted in —
// the full per-tenant model the overlay view must match bit-for-bit.
func materializeModel(t *testing.T, m *boosthd.Model, d *boosthd.Delta) *boosthd.Model {
	t.Helper()
	full := m.Clone()
	for i, l := range d.Learners {
		var class []hdc.Vector
		l.ReadClass(func(cv []hdc.Vector, _ uint64) {
			class = make([]hdc.Vector, len(cv))
			for c, v := range cv {
				class[c] = v.Clone()
			}
		})
		if err := full.Learners[i].SetClass(class); err != nil {
			t.Fatal(err)
		}
	}
	if d.Alphas != nil {
		full.Alphas = append([]float64(nil), d.Alphas...)
	}
	return full
}

// TestEngineWithDeltaFloat: the float tenant view predicts bit-for-bit
// like an engine over the fully materialized per-tenant model.
func TestEngineWithDeltaFloat(t *testing.T) {
	m, X, y := fixture(t, 2048, 4)
	d := tenantDelta(t, m, []int{1, 3}, X[:80], y[:80])
	view, err := NewEngine(m).WithDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewEngine(materializeModel(t, m, d)).PredictBatch(X)
	if err != nil {
		t.Fatal(err)
	}
	got, err := view.PredictBatch(X)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("float row %d: view %d, materialized %d", i, got[i], want[i])
		}
	}
}

// TestEngineWithDeltaBinary: the packed-binary tenant view — which
// shares the base's quantized planes and re-quantizes ONLY the
// overridden learners — predicts bit-for-bit like a full re-quantization
// of the materialized per-tenant model. This is the property that makes
// plane sharing safe: quantization is per-learner and deterministic, so
// overlaying two learners' planes equals re-quantizing the whole model.
func TestEngineWithDeltaBinary(t *testing.T) {
	m, X, y := fixture(t, 2048, 4)
	d := tenantDelta(t, m, []int{0, 2}, X[:80], y[:80])
	base, err := NewBinaryEngine(m)
	if err != nil {
		t.Fatal(err)
	}
	view, err := base.WithDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	full, err := NewBinaryEngine(materializeModel(t, m, d))
	if err != nil {
		t.Fatal(err)
	}
	want, err := full.PredictBatch(X)
	if err != nil {
		t.Fatal(err)
	}
	got, err := view.PredictBatch(X)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("binary row %d: view %d, fully re-quantized %d", i, got[i], want[i])
		}
	}
	// One-row batches exercise the scalar kernels.
	for i := 0; i < 10; i++ {
		g, err := view.PredictBatch(X[i : i+1])
		if err != nil {
			t.Fatal(err)
		}
		if g[0] != want[i] {
			t.Fatalf("binary single row %d: %d != %d", i, g[0], want[i])
		}
	}
}

// TestEngineWithDeltaBinaryUnderDimMask: tenant overlay composed over a
// dimension-quarantined binary base. Shared learners keep the base's
// masks (and masked scoring); overridden learners score from the
// tenant's own planes unmasked. The reference is the same composition
// applied to materialized models.
func TestEngineWithDeltaBinaryUnderDimMask(t *testing.T) {
	m, X, y := fixture(t, 2048, 4)
	healthy := dimMaskFixture(len(m.Learners), 8)
	noMask := make([]bool, len(m.Learners))

	binEng, err := NewBinaryEngine(m)
	if err != nil {
		t.Fatal(err)
	}
	maskedBase, err := RemaskDims(binEng, m, noMask, healthy)
	if err != nil {
		t.Fatal(err)
	}
	// Override learner 2 — one of the dimension-masked ones — so the
	// test pins both rules: learner 0 keeps its mask (shared), learner 2
	// drops it (tenant memory).
	d := tenantDelta(t, m, []int{2}, X[:80], y[:80])
	view, err := maskedBase.WithDelta(d)
	if err != nil {
		t.Fatal(err)
	}

	// Reference: materialize the tenant model, re-quantize fully, then
	// apply the same dimension masks minus the overridden learner's.
	refHealthy := make([][]uint64, len(healthy))
	copy(refHealthy, healthy)
	refHealthy[2] = nil
	full := materializeModel(t, m, d)
	fullEng, err := NewBinaryEngine(full)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := RemaskDims(fullEng, full, noMask, refHealthy)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.PredictBatch(X)
	if err != nil {
		t.Fatal(err)
	}
	got, err := view.PredictBatch(X)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("masked row %d: view %d, reference %d", i, got[i], want[i])
		}
	}
}

// TestEngineWithDeltaFrozenBase: a cold-loaded (frozen) binary snapshot
// has no float class memory behind its shell model, so a delta overlay —
// which must re-quantize overrides against real segment geometry — still
// works: the overridden learners' planes come from the delta's own float
// memory, everything else stays the frozen base's planes.
func TestEngineWithDeltaFrozenBase(t *testing.T) {
	m, X, y := fixture(t, 2048, 4)
	eng, err := NewBinaryEngine(m)
	if err != nil {
		t.Fatal(err)
	}
	frozen := reloadBinary(t, eng.Binary())
	if !frozen.Binary().Frozen() {
		t.Fatal("reloaded snapshot not frozen")
	}
	d := tenantDelta(t, m, []int{1}, X[:80], y[:80])
	view, err := frozen.WithDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	// Reference: the unfrozen engine with the same delta — plane overlay
	// over identical base planes.
	ref, err := eng.WithDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.PredictBatch(X)
	if err != nil {
		t.Fatal(err)
	}
	got, err := view.PredictBatch(X)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("frozen row %d: view %d, reference %d", i, got[i], want[i])
		}
	}
	if _, err := view.PredictBatch(X[:1]); err != nil {
		t.Fatal(err)
	}
}
