package boosthd_test

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"boosthd"
)

// TestPublicAPIEndToEnd drives the facade exactly as the README
// quickstart does: synthesize, split, normalize, train, evaluate.
func TestPublicAPIEndToEnd(t *testing.T) {
	cfg := boosthd.SynthConfig{
		Name:            "api-test",
		NumSubjects:     5,
		SamplesPerState: 512,
		SmoothWindow:    30,
		WindowSize:      128,
		WindowStep:      64,
		Separability:    0.9,
		SensorNoise:     0.3,
		LabelNoise:      0.02,
		Seed:            5,
	}
	data, subjects, err := boosthd.BuildSynth(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := data.Validate(); err != nil {
		t.Fatal(err)
	}
	train, test, testIDs, err := boosthd.SubjectSplit(data, subjects, 0.3, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(testIDs) == 0 {
		t.Fatal("no test subjects")
	}
	norm, err := boosthd.FitNormalizer(train.X, boosthd.ZScore)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := norm.Apply(train.X); err != nil {
		t.Fatal(err)
	}
	if _, err := norm.Apply(test.X); err != nil {
		t.Fatal(err)
	}

	model, err := boosthd.Train(train.X, train.Y, boosthd.DefaultConfig(2000, 10, data.NumClasses))
	if err != nil {
		t.Fatal(err)
	}
	acc, err := model.Evaluate(test.X, test.Y)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.5 {
		t.Errorf("end-to-end accuracy %v suspiciously low", acc)
	}

	online, err := boosthd.TrainOnlineHD(train.X, train.Y, nil,
		boosthd.OnlineHDDefaultConfig(2000, data.NumClasses))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := online.Evaluate(test.X, test.Y); err != nil {
		t.Fatal(err)
	}
}

// TestPublicDatasets builds each named dataset stand-in at reduced size
// through the config types the facade exports.
func TestPublicDatasetsConfigsExposed(t *testing.T) {
	// The three canonical builders exist; building the full-size ones is
	// covered by the experiments — here we only check the plumbing with
	// a custom small config per regime.
	for _, sep := range []float64{0.9, 0.55} {
		cfg := boosthd.SynthConfig{
			Name:            "plumbing",
			NumSubjects:     3,
			SamplesPerState: 256,
			SmoothWindow:    30,
			WindowSize:      128,
			WindowStep:      64,
			Separability:    sep,
			SensorNoise:     0.5,
			Seed:            9,
		}
		d, subs, err := boosthd.BuildSynth(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if d.Len() == 0 || len(subs) != 3 {
			t.Fatalf("bad build: %d rows, %d subjects", d.Len(), len(subs))
		}
	}
}

// TestFaultInjectorExported exercises the re-exported fault injection on
// a trained model's class vectors.
func TestFaultInjectorExported(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	inj, err := boosthd.NewFaultInjector(0.01, rng)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]float64, 500)
	for i := range data {
		data[i] = 1
	}
	if flips := inj.InjectFloat32(data); flips == 0 {
		t.Error("expected flips at pb=0.01")
	}
	if _, err := boosthd.NewFaultInjector(-1, rng); err == nil {
		t.Error("expected pb validation error")
	}
}

// TestServingFacade drives the checkpoint + serving exports end to end:
// save/load both checkpoint formats, start a micro-batching server, and
// hot-swap between backends under a few concurrent requests.
func TestServingFacade(t *testing.T) {
	cfg := boosthd.SynthConfig{
		Name:            "api-serve",
		NumSubjects:     5,
		SamplesPerState: 512,
		SmoothWindow:    30,
		WindowSize:      128,
		WindowStep:      64,
		Separability:    0.9,
		SensorNoise:     0.3,
		LabelNoise:      0.02,
		Seed:            6,
	}
	data, subjects, err := boosthd.BuildSynth(cfg)
	if err != nil {
		t.Fatal(err)
	}
	train, test, _, err := boosthd.SubjectSplit(data, subjects, 0.3, 11)
	if err != nil {
		t.Fatal(err)
	}
	model, err := boosthd.Train(train.X, train.Y, boosthd.DefaultConfig(800, 4, data.NumClasses))
	if err != nil {
		t.Fatal(err)
	}

	// Float checkpoint round trip.
	var ckpt bytes.Buffer
	if err := model.Save(&ckpt); err != nil {
		t.Fatal(err)
	}
	loaded, err := boosthd.LoadModel(&ckpt)
	if err != nil {
		t.Fatal(err)
	}

	// Binary snapshot round trip.
	bm, err := boosthd.Quantize(model)
	if err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := bm.Save(&snap); err != nil {
		t.Fatal(err)
	}
	cold, err := boosthd.LoadBinaryModel(&snap)
	if err != nil {
		t.Fatal(err)
	}

	srv, err := boosthd.NewServer(boosthd.NewEngine(loaded), boosthd.ServeConfig{MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	wants, err := loaded.PredictBatch(test.X[:1])
	if err != nil {
		t.Fatal(err)
	}
	want := wants[0]
	got, err := srv.Predict(test.X[0])
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("served %d, direct %d", got, want)
	}
	if err := srv.Swap(boosthd.NewEngineFromBinary(cold)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := srv.Predict(test.X[i%len(test.X)]); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	st := srv.Stats()
	if st.Backend != "packed-binary" || st.Swaps != 1 || st.Served < 9 {
		t.Fatalf("stats after swap: %+v", st)
	}
}

// TestTrainerFacade drives the continual-learning exports: observe a
// labeled stream through a Trainer (incremental updates against live
// serving), then hot-retrain and verify the server swapped engines.
func TestTrainerFacade(t *testing.T) {
	cfg := boosthd.SynthConfig{
		Name:            "api-trainer",
		NumSubjects:     5,
		SamplesPerState: 512,
		SmoothWindow:    30,
		WindowSize:      128,
		WindowStep:      64,
		Separability:    0.9,
		SensorNoise:     0.3,
		LabelNoise:      0.02,
		Seed:            8,
	}
	data, subjects, err := boosthd.BuildSynth(cfg)
	if err != nil {
		t.Fatal(err)
	}
	train, test, _, err := boosthd.SubjectSplit(data, subjects, 0.3, 11)
	if err != nil {
		t.Fatal(err)
	}
	model, err := boosthd.Train(train.X, train.Y, boosthd.DefaultConfig(800, 4, data.NumClasses))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := boosthd.NewServer(boosthd.NewEngine(model), boosthd.ServeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tr, err := boosthd.NewTrainer(srv, boosthd.TrainerConfig{BufferCap: 128, MinRetrain: 16})
	if err != nil {
		t.Fatal(err)
	}
	for i := range test.X {
		if _, err := srv.Predict(test.X[i]); err != nil {
			t.Fatal(err)
		}
		if err := tr.Observe(test.X[i], test.Y[i]); err != nil {
			t.Fatal(err)
		}
	}
	report, err := tr.Retrain()
	if err != nil {
		t.Fatal(err)
	}
	if !report.Swapped {
		t.Fatalf("retrain did not swap: %+v", report)
	}
	status := tr.Status()
	if status.Observed != uint64(len(test.X)) || status.Retrains != 1 {
		t.Fatalf("trainer status %+v", status)
	}
	if got := srv.Stats().Swaps; got != 1 {
		t.Fatalf("server swaps %d, want 1", got)
	}
	// The swapped-in engine still serves coherently.
	if _, err := srv.Predict(test.X[0]); err != nil {
		t.Fatal(err)
	}
}
