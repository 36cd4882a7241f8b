package boosthd

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"strings"
	"testing"

	"boosthd/internal/encoding"
	"boosthd/internal/hdc"
	"boosthd/internal/onlinehd"
	"boosthd/internal/wire"
)

// deltaFor builds a delta overriding the given learners with classifiers
// refit on (X, y) — real personalization, not synthetic noise.
func deltaFor(t *testing.T, m *Model, idx []int, X [][]float64, y []int) *Delta {
	t.Helper()
	H, err := m.Enc.EncodeBatch(X)
	if err != nil {
		t.Fatal(err)
	}
	segs := m.Segments()
	d := &Delta{Learners: map[int]*onlinehd.HVClassifier{}}
	for _, i := range idx {
		lo, hi := segs[i][0], segs[i][1]
		hv, err := onlinehd.NewHVClassifier(hi-lo, m.Cfg.Classes, m.Cfg.LR)
		if err != nil {
			t.Fatal(err)
		}
		sub := make([]hdc.Vector, len(H))
		for r, h := range H {
			sub[r] = h.Slice(lo, hi)
		}
		if err := hv.Fit(sub, y, onlinehd.FitOptions{Epochs: 2}); err != nil {
			t.Fatal(err)
		}
		d.Learners[i] = hv
	}
	return d
}

// materialize builds the full per-tenant copy the view must match: a
// deep clone with the delta's learners and alphas substituted.
func materialize(t *testing.T, m *Model, d *Delta) *Model {
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

func TestWithDeltaBitForBit(t *testing.T) {
	X, y := blobs(90, 0.3, 41)
	cfg := DefaultConfig(400, 5, 3)
	cfg.Epochs = 3
	m, err := Train(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Personalize on a shifted slice of the data so the overrides really
	// differ from the base learners.
	pX, py := blobs(60, 0.5, 99)
	d := deltaFor(t, m, []int{1, 3}, pX, py)

	view, err := m.WithDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	full := materialize(t, m, d)

	probe, _ := blobs(120, 0.4, 7)
	want, err := full.PredictBatch(probe)
	if err != nil {
		t.Fatal(err)
	}
	got, err := view.PredictBatch(probe)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: view predicts %d, materialized model %d", i, got[i], want[i])
		}
	}
	// Non-overridden learners are shared, not copied.
	for i := range m.Learners {
		if _, ok := d.Learners[i]; ok {
			continue
		}
		if view.Learners[i] != m.Learners[i] {
			t.Fatalf("learner %d not shared with the base", i)
		}
	}
	// nil delta alphas inherit the base's values in a private slice.
	for i := range m.Alphas {
		if view.Alphas[i] != m.Alphas[i] {
			t.Fatalf("alpha %d not inherited", i)
		}
	}
	view.Alphas[0] = -1
	if m.Alphas[0] == -1 {
		t.Fatal("view alphas alias the base's")
	}
}

func TestWithDeltaPrivateAlphas(t *testing.T) {
	X, y := blobs(60, 0.3, 42)
	cfg := DefaultConfig(300, 4, 3)
	cfg.Epochs = 2
	m, err := Train(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := deltaFor(t, m, []int{0}, X, y)
	d.Alphas = append([]float64(nil), m.Alphas...)
	d.Alphas[2] = 3.5
	view, err := m.WithDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	if view.Alphas[2] != 3.5 {
		t.Fatalf("private alpha not applied: %v", view.Alphas[2])
	}
	full := materialize(t, m, d)
	probe, _ := blobs(80, 0.4, 8)
	want, _ := full.PredictBatch(probe)
	got, err := view.PredictBatch(probe)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d differs with private alphas", i)
		}
	}
}

func TestWithDeltaValidation(t *testing.T) {
	X, y := blobs(60, 0.3, 43)
	cfg := DefaultConfig(300, 4, 3)
	cfg.Epochs = 2
	m, err := Train(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.WithDelta(nil); err == nil {
		t.Error("nil delta accepted")
	}
	if _, err := m.WithDelta(&Delta{Learners: map[int]*onlinehd.HVClassifier{9: m.Learners[0]}}); err == nil {
		t.Error("out-of-range learner index accepted")
	}
	if _, err := m.WithDelta(&Delta{Learners: map[int]*onlinehd.HVClassifier{0: nil}}); err == nil {
		t.Error("nil override accepted")
	}
	wrong, err := onlinehd.NewHVClassifier(m.Learners[0].Dim+1, m.Cfg.Classes, m.Cfg.LR)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.WithDelta(&Delta{Learners: map[int]*onlinehd.HVClassifier{0: wrong}}); err == nil {
		t.Error("dimension-mismatched override accepted")
	}
	if _, err := m.WithDelta(&Delta{Learners: map[int]*onlinehd.HVClassifier{}, Alphas: []float64{1}}); err == nil {
		t.Error("short alpha slice accepted")
	}
}

// TestWithDeltaQuarantineComposition pins the composition rule between
// tenant deltas and reliability masks: a masked base's zero alphas and
// dimension masks survive into the tenant view for every SHARED learner
// (the tenant must not trust condemned base memory), while overridden
// learners drop both (their memory is the tenant's own).
func TestWithDeltaQuarantineComposition(t *testing.T) {
	X, y := blobs(80, 0.3, 44)
	cfg := DefaultConfig(400, 5, 3)
	cfg.Epochs = 2
	m, err := Train(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	masked := make([]bool, len(m.Learners))
	masked[1] = true // whole-vote quarantine, NOT overridden by the delta
	masked[2] = true // whole-vote quarantine, overridden by the delta
	healthy := make([][]uint64, len(m.Learners))
	words := (m.Learners[3].Dim + 63) / 64
	dm := make([]uint64, words)
	for w := range dm {
		dm[w] = ^uint64(0)
	}
	dm[0] = 0 // first 64 dims of learner 3 condemned
	healthy[3] = dm
	mv, err := m.MaskedView(masked, healthy)
	if err != nil {
		t.Fatal(err)
	}

	d := deltaFor(t, m, []int{2}, X, y)
	// Tenant alphas that try to resurrect the quarantined learners.
	d.Alphas = append([]float64(nil), m.Alphas...)
	d.Alphas[1] = 1.0
	d.Alphas[2] = 1.0
	view, err := mv.WithDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	if view.Alphas[1] != 0 {
		t.Fatal("tenant alphas resurrected a quarantined shared learner")
	}
	if view.Alphas[2] == 0 {
		t.Fatal("override of a quarantined learner should restore its vote (its memory is the tenant's)")
	}
	if view.dimMasks == nil || view.dimMasks[3] == nil {
		t.Fatal("shared learner's dimension mask dropped")
	}
	// Predictions still match a materialized model under the same masks.
	full := materialize(t, mv, d)
	full.Alphas[1] = 0
	probe, _ := blobs(80, 0.4, 9)
	want, _ := full.PredictBatch(probe)
	got, err := view.PredictBatch(probe)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d differs under quarantine composition", i)
		}
	}
}

// TestWithDeltaDropsOverriddenDimMask: an overridden learner's dimension
// mask does not carry into the view (the mask condemned BASE memory).
func TestWithDeltaDropsOverriddenDimMask(t *testing.T) {
	X, y := blobs(60, 0.3, 45)
	cfg := DefaultConfig(300, 4, 3)
	cfg.Epochs = 2
	m, err := Train(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	masked := make([]bool, len(m.Learners))
	healthy := make([][]uint64, len(m.Learners))
	words := (m.Learners[0].Dim + 63) / 64
	dm := make([]uint64, words)
	healthy[0] = dm // everything condemned
	mv, err := m.MaskedView(masked, healthy)
	if err != nil {
		t.Fatal(err)
	}
	d := deltaFor(t, m, []int{0}, X, y)
	view, err := mv.WithDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	if view.dimMasks != nil && view.dimMasks[0] != nil {
		t.Fatal("overridden learner kept the base's dimension mask")
	}
}

func TestFingerprint(t *testing.T) {
	X, y := blobs(60, 0.3, 46)
	cfg := DefaultConfig(300, 4, 3)
	cfg.Epochs = 2
	m, err := Train(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fp := m.Fingerprint()
	if fp != m.Fingerprint() {
		t.Fatal("fingerprint not deterministic")
	}
	// Alphas are excluded: masks and reweights must not orphan deltas.
	av := m.AlphaView()
	av.Alphas[0] = 0
	if av.Fingerprint() != fp {
		t.Fatal("alpha change moved the fingerprint")
	}
	// Class memory is included: an online update moves it.
	if _, err := m.Update(X[0], (y[0]+1)%3); err != nil {
		t.Fatal(err)
	}
	if m.Fingerprint() == fp {
		t.Fatal("class-memory change did not move the fingerprint")
	}
}

func TestSaveLoadDeltaRoundTrip(t *testing.T) {
	X, y := blobs(80, 0.3, 47)
	cfg := DefaultConfig(400, 5, 3)
	cfg.Epochs = 2
	m, err := Train(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := deltaFor(t, m, []int{0, 4}, X, y)
	d.Alphas = append([]float64(nil), m.Alphas...)
	d.Alphas[4] = 2.25
	fp := m.Fingerprint()

	var buf bytes.Buffer
	if err := SaveDelta(&buf, "ward-7", d, fp); err != nil {
		t.Fatal(err)
	}
	tenant, got, err := LoadDelta(bytes.NewReader(buf.Bytes()), m, fp)
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "ward-7" {
		t.Fatalf("tenant name %q after round trip", tenant)
	}
	view1, err := m.WithDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	view2, err := m.WithDelta(got)
	if err != nil {
		t.Fatal(err)
	}
	probe, _ := blobs(80, 0.4, 10)
	want, _ := view1.PredictBatch(probe)
	have, err := view2.PredictBatch(probe)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if want[i] != have[i] {
			t.Fatalf("row %d differs after delta round trip", i)
		}
	}
	for i := range d.Alphas {
		if got.Alphas[i] != d.Alphas[i] {
			t.Fatal("alphas differ after round trip")
		}
	}
}

func TestLoadDeltaBaseMismatch(t *testing.T) {
	X, y := blobs(60, 0.3, 48)
	cfg := DefaultConfig(300, 4, 3)
	cfg.Epochs = 2
	m, err := Train(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := deltaFor(t, m, []int{1}, X, y)
	var buf bytes.Buffer
	if err := SaveDelta(&buf, "t1", d, m.Fingerprint()); err != nil {
		t.Fatal(err)
	}
	// Retrain moves the class memory, so the fingerprint no longer
	// matches and the record must be rejected loudly.
	other := m.Clone()
	if err := other.Refit(append(X[:0:0], X...), y); err != nil {
		t.Fatal(err)
	}
	if _, err := other.Update(X[0], (y[0]+1)%3); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadDelta(bytes.NewReader(buf.Bytes()), other, other.Fingerprint()); !errors.Is(err, ErrBaseMismatch) {
		t.Fatalf("want ErrBaseMismatch, got %v", err)
	}
}

func TestLoadDeltaRejectsForeignBlobs(t *testing.T) {
	X, y := blobs(60, 0.3, 49)
	cfg := DefaultConfig(300, 4, 3)
	cfg.Epochs = 2
	m, err := Train(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A full ensemble checkpoint is not a tenant delta record.
	var ckpt bytes.Buffer
	if err := m.Save(&ckpt); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadDelta(bytes.NewReader(ckpt.Bytes()), m, m.Fingerprint()); err == nil {
		t.Error("ensemble checkpoint accepted as a delta record")
	}
	if _, _, err := LoadDelta(bytes.NewReader([]byte("garbage")), m, m.Fingerprint()); err == nil {
		t.Error("garbage accepted as a delta record")
	}
}

// TestPackedCheckpointSize pins the seeded-checkpoint bloat fix: class
// memory is stored as a flat 8-bytes-per-float64 block instead of gob's
// ~9-10 bytes per high-entropy float, and the round trip stays
// bit-for-bit.
func TestPackedCheckpointSize(t *testing.T) {
	X, y := blobs(80, 0.3, 50)
	cfg := DefaultConfig(512, 4, 3)
	cfg.Epochs = 3
	cfg.Projection = encoding.ProjSeeded
	m, err := Train(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	classBytes := 8 * cfg.TotalDim * cfg.Classes
	// Flat packing plus bounded structural overhead; the old per-float
	// gob encoding ran well past this for trained (high-entropy) memory.
	if max := classBytes + classBytes/8 + 4096; buf.Len() > max {
		t.Fatalf("seeded checkpoint is %d bytes for %d bytes of class memory (bound %d): packing regressed", buf.Len(), classBytes, max)
	}
	loaded, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := m.PredictBatch(X)
	got, err := loaded.PredictBatch(X)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("row %d differs after packed round trip", i)
		}
	}
	for i := range m.Alphas {
		if m.Alphas[i] != loaded.Alphas[i] {
			t.Fatal("alphas differ after packed round trip")
		}
	}
}

func TestDeltaMemoryBytes(t *testing.T) {
	X, y := blobs(60, 0.3, 51)
	cfg := DefaultConfig(300, 4, 3)
	cfg.Epochs = 2
	m, err := Train(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := deltaFor(t, m, []int{0, 2}, X, y)
	d.Alphas = append([]float64(nil), m.Alphas...)
	want := 8 * len(m.Alphas)
	for _, i := range []int{0, 2} {
		want += 8 * m.Learners[i].Dim * m.Learners[i].Classes
	}
	if got := d.MemoryBytes(); got != want {
		t.Fatalf("MemoryBytes = %d, want %d", got, want)
	}
	idx := d.Indexes()
	if len(idx) != 2 || idx[0] != 0 || idx[1] != 2 {
		t.Fatalf("Indexes = %v", idx)
	}
}

// frameDeltaWire frames dw under magic at an explicit header version —
// the test's stand-in for writers this build no longer has (the
// Version1 per-vector layout) and for malformed ones.
func frameDeltaWire(t *testing.T, magic string, version byte, dw *deltaWire) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := wire.WriteHeaderVersion(&buf, magic, version); err != nil {
		t.Fatal(err)
	}
	if err := gob.NewEncoder(&buf).Encode(dw); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// v1Wire rewrites a packed payload into the Version1 layout: the same
// class memory as per-vector gob slices.
func v1Wire(t *testing.T, dw *deltaWire) *deltaWire {
	t.Helper()
	class, err := unpackClass(dw.Packed, dw.Dims, dw.Classes)
	if err != nil {
		t.Fatal(err)
	}
	v1 := *dw
	v1.Packed, v1.Class = nil, class
	return &v1
}

// sameDeltaBits reports whether two deltas override the same learners
// with bit-identical class memory and carry bit-identical alphas.
func sameDeltaBits(a, b *Delta) bool {
	if len(a.Learners) != len(b.Learners) || len(a.Alphas) != len(b.Alphas) {
		return false
	}
	for i, la := range a.Learners {
		lb, ok := b.Learners[i]
		if !ok || la.Dim != lb.Dim || la.Classes != lb.Classes {
			return false
		}
		var ca []hdc.Vector
		la.ReadClass(func(class []hdc.Vector, _ uint64) { ca = class })
		same := true
		lb.ReadClass(func(class []hdc.Vector, _ uint64) {
			for c, cv := range class {
				for j, x := range cv {
					same = same && math.Float64bits(x) == math.Float64bits(ca[c][j])
				}
			}
		})
		if !same {
			return false
		}
	}
	for i, x := range a.Alphas {
		if math.Float64bits(x) != math.Float64bits(b.Alphas[i]) {
			return false
		}
	}
	return true
}

// TestDeltaRecordLayouts pins the two class-memory layouts of BHDT
// records and BHDJ patches: records and patches are written packed at
// VersionPacked, Version1 payloads load to the same delta bits, and the
// loader rejects what no conforming writer produces — a packed block
// under a Version1 frame, both layouts at once, a block whose length
// disagrees with Dims, and Dims that disagree with the base.
func TestDeltaRecordLayouts(t *testing.T) {
	X, y := blobs(60, 0.3, 51)
	cfg := DefaultConfig(300, 4, 3)
	cfg.Epochs = 2
	m, err := Train(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fp := m.Fingerprint()
	d := deltaFor(t, m, []int{1, 3}, X, y)
	d.Alphas = append([]float64(nil), m.Alphas...)
	d.Alphas[0] = 0.75

	var rec, patch bytes.Buffer
	if err := SaveDeltaStamped(&rec, "w", d, fp, 9); err != nil {
		t.Fatal(err)
	}
	if err := SaveDeltaPatch(&patch, "w", d, []int{3}, fp, 9); err != nil {
		t.Fatal(err)
	}
	for name, b := range map[string][]byte{"record": rec.Bytes(), "patch": patch.Bytes()} {
		if b[4] != wire.VersionPacked {
			t.Fatalf("%s framed at version %d, want %d", name, b[4], wire.VersionPacked)
		}
	}
	loadRec := func(b []byte) (*Delta, error) {
		_, got, epoch, err := LoadDeltaStamped(bytes.NewReader(b), m, fp)
		if err == nil && epoch != 9 {
			t.Fatalf("record epoch %d, want 9", epoch)
		}
		return got, err
	}
	loadPatch := func(b []byte) (*Delta, error) {
		_, got, matched, err := LoadDeltaPatch(bytes.NewReader(b), m, fp, 9)
		if err == nil && !matched {
			t.Fatal("patch at the record's epoch skipped")
		}
		return got, err
	}
	want := &Delta{Learners: map[int]*onlinehd.HVClassifier{3: d.Learners[3]}, Alphas: d.Alphas}

	for _, tc := range []struct {
		name  string
		magic string
		blob  []byte
		load  func([]byte) (*Delta, error)
		want  *Delta
	}{
		{"record", wire.MagicTenant, rec.Bytes(), loadRec, d},
		{"patch", wire.MagicTenantJournal, patch.Bytes(), loadPatch, want},
	} {
		packed, err := tc.load(tc.blob)
		if err != nil {
			t.Fatalf("%s: packed load: %v", tc.name, err)
		}
		if !sameDeltaBits(packed, tc.want) {
			t.Fatalf("%s: packed load differs from the saved delta", tc.name)
		}
		dw, _, err := readDeltaWire(bytes.NewReader(tc.blob), tc.magic)
		if err != nil {
			t.Fatal(err)
		}
		old, err := tc.load(frameDeltaWire(t, tc.magic, wire.Version1, v1Wire(t, dw)))
		if err != nil {
			t.Fatalf("%s: Version1 load: %v", tc.name, err)
		}
		if !sameDeltaBits(old, packed) {
			t.Fatalf("%s: Version1 and packed layouts load to different bits", tc.name)
		}

		both := v1Wire(t, dw)
		both.Packed = dw.Packed
		short := *dw
		short.Packed = dw.Packed[:len(dw.Packed)-8]
		wide := *dw
		wide.Dims = append([]int(nil), dw.Dims...)
		wide.Dims[0]++
		for _, bad := range []struct {
			name    string
			version byte
			dw      *deltaWire
			msg     string
		}{
			{"packed under Version1", wire.Version1, dw, "framed at header version"},
			{"both layouts", wire.VersionPacked, both, "both packed and per-vector"},
			{"short block", wire.VersionPacked, &short, "geometry needs"},
			{"dims off the base", wire.VersionPacked, &wide, "base is"},
		} {
			_, err := tc.load(frameDeltaWire(t, tc.magic, bad.version, bad.dw))
			if err == nil || !strings.Contains(err.Error(), bad.msg) {
				t.Fatalf("%s, %s: got %v, want an error naming %q", tc.name, bad.name, err, bad.msg)
			}
		}
	}
}
