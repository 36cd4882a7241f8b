package trainer

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
	"time"

	"boosthd/internal/boosthd"
	"boosthd/internal/encoding"
	"boosthd/internal/infer"
	"boosthd/internal/serve"
)

// goldenTraining pins every class-vector bit and every alpha that
// training produces, keyed "<projection>/boot=<bootstrap>/spread=<gamma
// spread>/classes=<classes>". Each value is an FNV-64a digest over, in
// order: the Fingerprint and alpha bits after Train, after Refit on a
// second set and after ReweightAlphas over the first set; the
// EvaluateLearners accuracies on the first set; the Fingerprint and
// alphas of the tenant view a TenantTrainer.RetrainTenant installs over
// the second set; and the Fingerprint after streaming the second set
// through UpdateBatch, the /observe path. Two, three and four classes
// run the fused scoring kernel's two-class, three-class and general
// bodies. A change to how training encodes or scores must leave every
// digest unchanged.
var goldenTraining = map[string]uint64{
	"stored/boot=false/spread=0/classes=2": 0x84a8e9b0be1aca1b,
	"stored/boot=false/spread=0/classes=3": 0x7a6b906ad1e0fe60,
	"stored/boot=false/spread=0/classes=4": 0x42f16e7a13ef2fd3,
	"stored/boot=false/spread=4/classes=2": 0x58be44cdc0aecc7f,
	"stored/boot=false/spread=4/classes=3": 0x774048772e28babf,
	"stored/boot=false/spread=4/classes=4": 0x8fdf64dd581cee79,
	"stored/boot=true/spread=0/classes=2":  0x520e37232c86e17f,
	"stored/boot=true/spread=0/classes=3":  0x445000ad48e26869,
	"stored/boot=true/spread=0/classes=4":  0x77f53df5706cca22,
	"stored/boot=true/spread=4/classes=2":  0xb31568aa73d96c94,
	"stored/boot=true/spread=4/classes=3":  0x482e36e44094ae40,
	"stored/boot=true/spread=4/classes=4":  0x8ca8235869609ac3,
	"seeded/boot=false/spread=0/classes=2": 0xdcb32f3fb897ac87,
	"seeded/boot=false/spread=0/classes=3": 0x526edd69c2bf902a,
	"seeded/boot=false/spread=0/classes=4": 0x58c4ffe551a924b1,
	"seeded/boot=false/spread=4/classes=2": 0x07860534c3c7273f,
	"seeded/boot=false/spread=4/classes=3": 0x8ef2274bb42fdfc2,
	"seeded/boot=false/spread=4/classes=4": 0x7002cd2566d033b6,
	"seeded/boot=true/spread=0/classes=2":  0x3a166253e174dd1d,
	"seeded/boot=true/spread=0/classes=3":  0x2b8860f0c04097a4,
	"seeded/boot=true/spread=0/classes=4":  0xcffd55e53d49b0a0,
	"seeded/boot=true/spread=4/classes=2":  0xdf3f580beabfbd67,
	"seeded/boot=true/spread=4/classes=3":  0xdbf5f0053d184ed4,
	"seeded/boot=true/spread=4/classes=4":  0xaf0db22dc53f1f2b,
}

// goldenSet draws n standardized-looking rows of f features around one
// random center per class, labels cycling through the classes.
func goldenSet(seed int64, n, f, classes int) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	centers := make([][]float64, classes)
	for c := range centers {
		centers[c] = make([]float64, f)
		for k := range centers[c] {
			centers[c][k] = rng.NormFloat64()
		}
	}
	X, y := make([][]float64, n), make([]int, n)
	for i := range X {
		y[i] = i % classes
		X[i] = make([]float64, f)
		for k := range X[i] {
			X[i][k] = centers[y[i]][k] + rng.NormFloat64()
		}
	}
	return X, y
}

// trainingDigest runs one golden case and folds its results.
func trainingDigest(t *testing.T, cfg boosthd.Config) uint64 {
	t.Helper()
	h := fnv.New64a()
	fold := func(w uint64) {
		var b [8]byte
		for i := range b {
			b[i] = byte(w >> (8 * i))
		}
		h.Write(b[:])
	}
	foldModel := func(m *boosthd.Model) {
		fold(m.Fingerprint())
		for _, a := range m.Alphas {
			fold(math.Float64bits(a))
		}
	}
	X1, y1 := goldenSet(11, 90, 12, cfg.Classes)
	X2, y2 := goldenSet(12, 60, 12, cfg.Classes)

	m, err := boosthd.Train(X1, y1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	foldModel(m)
	if err := m.Refit(X2, y2); err != nil {
		t.Fatal(err)
	}
	foldModel(m)
	if err := m.ReweightAlphas(X1, y1); err != nil {
		t.Fatal(err)
	}
	foldModel(m)
	acc, err := m.EvaluateLearners(X1, y1)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range acc {
		fold(math.Float64bits(a))
	}

	s, err := serve.NewServer(infer.NewEngine(m), serve.Config{MaxBatch: 8, MaxWait: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	reg, err := serve.NewTenantRegistry(s, serve.TenantRegistryConfig{Store: serve.NewFileDeltaStore(t.TempDir())})
	if err != nil {
		t.Fatal(err)
	}
	tt, err := NewTenantTrainer(reg, TenantConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tt.ObserveTenantBatch("golden", X2, y2); err != nil {
		t.Fatal(err)
	}
	if rep, err := tt.RetrainTenant("golden"); err != nil || !rep.Swapped {
		t.Fatalf("tenant retrain: %+v err=%v", rep, err)
	}
	eng, err := reg.Resolve("golden")
	if err != nil {
		t.Fatal(err)
	}
	foldModel(eng.Model())
	if _, _, err := m.UpdateBatch(X2, y2); err != nil {
		t.Fatal(err)
	}
	foldModel(m)
	return h.Sum64()
}

// TestTrainingGolden pins training bit for bit on stored and seeded
// projections, with bootstrap on and off, with one shared encoder and a
// bandwidth spread, for two, three and four classes.
func TestTrainingGolden(t *testing.T) {
	for _, proj := range []encoding.Projection{encoding.ProjStored, encoding.ProjSeeded} {
		for _, boot := range []bool{false, true} {
			for _, spread := range []float64{0, 4} {
				for classes := 2; classes <= 4; classes++ {
					key := fmt.Sprintf("%v/boot=%v/spread=%v/classes=%d", proj, boot, spread, classes)
					cfg := boosthd.DefaultConfig(500, 5, classes)
					cfg.Epochs, cfg.Bootstrap, cfg.GammaSpread = 3, boot, spread
					cfg.Projection, cfg.Seed = proj, 7
					if got, want := trainingDigest(t, cfg), goldenTraining[key]; got != want {
						t.Errorf("%s: digest %#016x, want %#016x", key, got, want)
					}
				}
			}
		}
	}
}
