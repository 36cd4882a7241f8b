package reliability

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"boosthd/internal/boosthd"
	"boosthd/internal/encoding"
	"boosthd/internal/faults"
	"boosthd/internal/hdc"
	"boosthd/internal/infer"
	"boosthd/internal/serve"
	"boosthd/internal/trainer"
)

// fixture trains a small fixed-seed ensemble and returns held-out rows.
func fixture(t testing.TB, dim, nl int) (*boosthd.Model, [][]float64, []int) {
	t.Helper()
	return fixtureProj(t, dim, nl, encoding.ProjStored)
}

// fixtureProj is fixture with the encoder's projection mode chosen.
func fixtureProj(t testing.TB, dim, nl int, proj encoding.Projection) (*boosthd.Model, [][]float64, []int) {
	t.Helper()
	rng := rand.New(rand.NewSource(4321))
	const n, features, classes = 300, 10, 3
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
	cfg.Projection = proj
	m, err := boosthd.Train(X[:200], y[:200], cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m, X[200:], y[200:]
}

// saveCheckpoint writes m as the verified repair checkpoint.
func saveCheckpoint(t testing.TB, m *boosthd.Model) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "verified.bhde")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// corruptLearner flips float32 bits of one learner's class memory under
// its write lock until at least one bit actually flipped.
func corruptLearner(t testing.TB, m *boosthd.Model, i int, inj *faults.Injector) int {
	t.Helper()
	total := 0
	for attempt := 0; attempt < 100 && total == 0; attempt++ {
		m.Learners[i].MutateClass(func(class []hdc.Vector) {
			for _, cv := range class {
				total += inj.InjectFloat32(cv)
			}
		})
	}
	if total == 0 {
		t.Fatal("injector never flipped a bit")
	}
	return total
}

// hammer launches n clients that predict continuously until stop closes.
func hammer(t testing.TB, srv *serve.Server, rows [][]float64, n int, stop <-chan struct{}) *sync.WaitGroup {
	t.Helper()
	var wg sync.WaitGroup
	var failures atomic.Uint64
	wg.Add(n)
	for c := 0; c < n; c++ {
		go func(c int) {
			defer wg.Done()
			for k := 0; ; k++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := srv.Predict(rows[(c+k)%len(rows)]); err != nil {
					failures.Add(1)
					return
				}
			}
		}(c)
	}
	t.Cleanup(func() {
		if f := failures.Load(); f > 0 {
			t.Errorf("%d client predictions failed under reliability load", f)
		}
	})
	return &wg
}

func samePreds(t testing.TB, what string, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d predictions vs %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: prediction %d is %d, want %d", what, i, got[i], want[i])
		}
	}
}

func contains(idx []int, want int) bool {
	for _, i := range idx {
		if i == want {
			return true
		}
	}
	return false
}

// TestScrubQuarantineRepairFloatUnderLoad is the acceptance soak for the
// float backend: 64 concurrent clients hammer the server while learners
// are corrupted one at a time through the locked injection path. Every
// corruption must be detected by the scrubber, quarantined predictions
// must match a clean model with the same learners alpha-masked
// bit-for-bit, and post-repair predictions must match the pristine
// model. Run with -race.
func TestScrubQuarantineRepairFloatUnderLoad(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 4 {
		runtime.GOMAXPROCS(4)
	}
	m, X, y := fixture(t, 480, 4)
	pristine := m.Clone()
	ckpt := saveCheckpoint(t, m)

	srv, err := serve.NewServer(infer.NewEngine(m), serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	mon, err := New(srv, Config{CheckpointPath: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.SetCanary(X[:32], y[:32]); err != nil {
		t.Fatal(err)
	}
	probes := X[32:]

	stop := make(chan struct{})
	wg := hammer(t, srv, X, 64, stop)

	pristineEng := infer.NewEngine(pristine)
	wantClean, err := pristineEng.PredictBatch(probes)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := faults.NewInjector(2e-3, rand.New(rand.NewSource(99)))
	if err != nil {
		t.Fatal(err)
	}

	nl := len(m.Learners)
	for round := 0; round < 2*nl; round++ {
		target := round % nl
		corruptLearner(t, m, target, inj)

		rep, err := mon.Scrub()
		if err != nil {
			t.Fatal(err)
		}
		if !contains(rep.Quarantined, target) {
			t.Fatalf("round %d: scrub missed corrupted learner %d (report %+v)", round, target, rep)
		}
		if !rep.Swapped {
			t.Fatalf("round %d: quarantine did not swap the serving engine", round)
		}

		// Quarantined serving must equal the clean model with the same
		// learners alpha-masked, bit for bit.
		mask := make([]bool, nl)
		for _, i := range mon.Status().Quarantined {
			mask[i] = true
		}
		view, err := pristine.MaskedView(mask, nil)
		if err != nil {
			t.Fatal(err)
		}
		wantMasked, err := infer.NewEngine(view).PredictBatch(probes)
		if err != nil {
			t.Fatal(err)
		}
		gotMasked, err := srv.PredictBatch(probes)
		if err != nil {
			t.Fatal(err)
		}
		samePreds(t, "quarantined serving", gotMasked, wantMasked)

		rrep, err := mon.Repair()
		if err != nil {
			t.Fatal(err)
		}
		if !contains(rrep.Repaired, target) || rrep.Source != "checkpoint" {
			t.Fatalf("round %d: repair report %+v, want learner %d via checkpoint", round, rrep, target)
		}
		got, err := srv.PredictBatch(probes)
		if err != nil {
			t.Fatal(err)
		}
		samePreds(t, "post-repair serving", got, wantClean)
	}
	close(stop)
	wg.Wait()

	st := mon.Status()
	if st.Degraded || len(st.Quarantined) != 0 {
		t.Fatalf("monitor still degraded after repairs: %+v", st)
	}
	if st.Detections < uint64(2*nl) || st.Repairs < uint64(2*nl) {
		t.Fatalf("counters did not track the soak: %+v", st)
	}
}

// TestScrubDetectsEveryWordFaultBinary is the acceptance soak for the
// packed-binary backend: word faults are injected into the live
// quantized planes while 64 clients hammer the server. The scrubber must
// flag exactly the learners whose planes differ from the pristine
// quantization, quarantined predictions must match the pristine binary
// engine with the same mask, and repair (re-threshold from the intact
// float memory) must restore pristine predictions. Run with -race.
func TestScrubDetectsEveryWordFaultBinary(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 4 {
		runtime.GOMAXPROCS(4)
	}
	m, X, y := fixture(t, 480, 4)
	pristine := m.Clone()

	eng, err := infer.NewBinaryEngine(m)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.NewServer(eng, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	mon, err := New(srv, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.SetCanary(X[:32], y[:32]); err != nil {
		t.Fatal(err)
	}
	probes := X[32:]

	pristineEng, err := infer.NewBinaryEngine(pristine)
	if err != nil {
		t.Fatal(err)
	}
	pristineSigs := signModel(pristine, pristineEng.Binary(), DefaultSegmentWords)
	wantClean, err := pristineEng.PredictBatch(probes)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	wg := hammer(t, srv, X, 64, stop)

	inj, err := faults.NewInjector(5e-4, rand.New(rand.NewSource(4242)))
	if err != nil {
		t.Fatal(err)
	}
	nl := len(m.Learners)
	for round := 0; round < 6; round++ {
		bin := srv.Engine().Binary()
		flips := 0
		for attempt := 0; attempt < 100 && flips == 0; attempt++ {
			flips = bin.InjectWordFaults(inj)
		}
		if flips == 0 {
			t.Fatal("word injector never flipped a bit")
		}

		// Ground truth: which learners' planes now differ from the
		// pristine quantization (deterministic from the float memory).
		cur := signModel(m, srv.Engine().Binary(), DefaultSegmentWords)
		var corrupted []int
		for i := range cur {
			if len(planeBadSegs(&pristineSigs[i], &cur[i], nil)) > 0 {
				corrupted = append(corrupted, i)
			}
		}
		if len(corrupted) == 0 {
			t.Fatalf("round %d: %d flips landed nowhere", round, flips)
		}

		rep, err := mon.Scrub()
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range corrupted {
			if !contains(rep.Quarantined, i) {
				t.Fatalf("round %d: scrub missed corrupted learner %d (flagged %v)", round, i, rep.Quarantined)
			}
		}

		mask := make([]bool, nl)
		for _, i := range mon.Status().Quarantined {
			mask[i] = true
		}
		refEng, err := infer.Remask(pristineEng, pristine, mask)
		if err != nil {
			t.Fatal(err)
		}
		wantMasked, err := refEng.PredictBatch(probes)
		if err != nil {
			t.Fatal(err)
		}
		gotMasked, err := srv.PredictBatch(probes)
		if err != nil {
			t.Fatal(err)
		}
		samePreds(t, "quarantined binary serving", gotMasked, wantMasked)

		rrep, err := mon.Repair()
		if err != nil {
			t.Fatal(err)
		}
		if rrep.Source != "rethreshold" || len(rrep.Failed) != 0 {
			t.Fatalf("round %d: repair report %+v, want rethreshold with no failures", round, rrep)
		}
		got, err := srv.PredictBatch(probes)
		if err != nil {
			t.Fatal(err)
		}
		samePreds(t, "post-repair binary serving", got, wantClean)
	}
	close(stop)
	wg.Wait()
}

// TestCanaryCatchesSilentCollapse: under SignedUpdates an announced
// mutation is re-signed, so the integrity check alone would wave through
// a semantically destroyed learner whose signature was accepted. The
// canary must catch the collapse, and repair must restore from the
// checkpoint (the re-signed memory is not trustworthy).
func TestCanaryCatchesSilentCollapse(t *testing.T) {
	m, X, y := fixture(t, 480, 4)
	pristine := m.Clone()
	ckpt := saveCheckpoint(t, m)

	srv, err := serve.NewServer(infer.NewEngine(m), serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	mon, err := New(srv, Config{CheckpointPath: ckpt, SignedUpdates: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.SetCanary(X[:48], y[:48]); err != nil {
		t.Fatal(err)
	}

	// Rotate the learner's class vectors and announce the rotation: every
	// signature stays internally consistent and the version moves with a
	// handed signature, but the learner now answers the wrong class
	// almost always.
	const target = 1
	m.Learners[target].MutateClass(func(class []hdc.Vector) {
		first := append(hdc.Vector(nil), class[0]...)
		copy(class[0], class[1])
		copy(class[1], class[2])
		copy(class[2], first)
	})
	mon.NoteMutation([]int{target})

	rep, err := mon.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.IntegrityFaults) != 0 {
		t.Fatalf("announced mutation flagged as integrity fault: %+v", rep)
	}
	// The scrub adopted the handed signature; an unannounced rotation
	// would only have been granted a grace pass.
	mon.mu.Lock()
	adopted := mon.ledger[target].sig.version == m.Learners[target].Version()
	mon.mu.Unlock()
	if !adopted {
		t.Fatal("announced rotation's signature was not adopted")
	}
	if !contains(rep.CanaryFaults, target) || !contains(rep.Quarantined, target) {
		t.Fatalf("canary missed the collapapsed learner: %+v", rep)
	}

	rrep, err := mon.Repair()
	if err != nil {
		t.Fatal(err)
	}
	if !contains(rrep.Repaired, target) || rrep.Source != "checkpoint" {
		t.Fatalf("repair report %+v, want learner %d via checkpoint", rrep, target)
	}
	want, err := infer.NewEngine(pristine).PredictBatch(X[48:])
	if err != nil {
		t.Fatal(err)
	}
	got, err := srv.PredictBatch(X[48:])
	if err != nil {
		t.Fatal(err)
	}
	samePreds(t, "post-repair serving", got, want)
}

// TestRepairViaTrainer: with no checkpoint but a trainer attached, a
// corrupted learner triggers one hot retrain over the trainer's buffer
// and the monitor adopts the fresh model.
func TestRepairViaTrainer(t *testing.T) {
	m, X, y := fixture(t, 480, 4)
	srv, err := serve.NewServer(infer.NewEngine(m), serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tr, err := trainer.New(srv, trainer.Config{
		BufferCap:  512,
		MinRetrain: 32,
		// Buffering only: online updates would bump versions and a
		// strict monitor would read that as corruption.
		DisableOnlineUpdate: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.ObserveBatch(X, y); err != nil {
		t.Fatal(err)
	}
	mon, err := New(srv, Config{Trainer: tr})
	if err != nil {
		t.Fatal(err)
	}

	inj, err := faults.NewInjector(2e-3, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	corruptLearner(t, m, 2, inj)
	rep, err := mon.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if !contains(rep.Quarantined, 2) {
		t.Fatalf("scrub missed the corruption: %+v", rep)
	}
	rrep, err := mon.Repair()
	if err != nil {
		t.Fatal(err)
	}
	if rrep.Source != "trainer" || !rrep.Swapped {
		t.Fatalf("repair report %+v, want a trainer-sourced swap", rrep)
	}
	st := mon.Status()
	if st.Degraded {
		t.Fatalf("still degraded after trainer repair: %+v", st)
	}
	// The adopted model is a fresh refit, not the pristine one — but it
	// must be healthy: a follow-up scrub is clean and accuracy is sane.
	rep2, err := mon.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Quarantined) != 0 || rep2.Adopted {
		t.Fatalf("post-repair scrub not clean: %+v", rep2)
	}
	acc, err := srv.Engine().Evaluate(X, y)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.6 {
		t.Fatalf("refit model accuracy %.3f is collapsed", acc)
	}
}

// TestRepairSourcesInOrder: with both a checkpoint and a trainer
// configured, float damage restores from the checkpoint first; once the
// checkpoint is gone, the same damage falls through to the trainer
// instead of leaving the learner quarantined.
func TestRepairSourcesInOrder(t *testing.T) {
	m, X, y := fixture(t, 480, 4)
	ckpt := saveCheckpoint(t, m)
	srv, err := serve.NewServer(infer.NewEngine(m), serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tr, err := trainer.New(srv, trainer.Config{BufferCap: 512, MinRetrain: 32, DisableOnlineUpdate: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.ObserveBatch(X, y); err != nil {
		t.Fatal(err)
	}
	mon, err := New(srv, Config{CheckpointPath: ckpt, Trainer: tr})
	if err != nil {
		t.Fatal(err)
	}
	inj, err := faults.NewInjector(2e-3, rand.New(rand.NewSource(13)))
	if err != nil {
		t.Fatal(err)
	}
	for round, want := range []string{"checkpoint", "trainer"} {
		if round == 1 {
			if err := os.Remove(ckpt); err != nil {
				t.Fatal(err)
			}
		}
		corruptLearner(t, m, round, inj)
		rep, err := mon.Scrub()
		if err != nil {
			t.Fatal(err)
		}
		if !contains(rep.Quarantined, round) {
			t.Fatalf("round %d: scrub missed the corruption: %+v", round, rep)
		}
		rrep, err := mon.Repair()
		if err != nil {
			t.Fatal(err)
		}
		if rrep.Source != want || !contains(rrep.Repaired, round) || len(rrep.Failed) != 0 {
			t.Fatalf("round %d: repair report %+v, want learner %d via %s", round, rrep, round, want)
		}
		if st := mon.Status(); st.Degraded {
			t.Fatalf("round %d: still degraded after repair: %+v", round, st)
		}
	}
}

// TestFrozenBinaryReloadRepair: a cold-loaded binary snapshot has no
// float memory, so repair is a wholesale reload of the verified
// checkpoint.
func TestFrozenBinaryReloadRepair(t *testing.T) {
	m, X, y := fixture(t, 480, 4)
	bm, err := infer.Quantize(m)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.bhdb")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := bm.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	eng, err := serve.LoadEngine(path, "binary")
	if err != nil {
		t.Fatal(err)
	}
	if eng.Binary() == nil || !eng.Binary().Frozen() {
		t.Fatal("expected a frozen binary engine")
	}
	srv, err := serve.NewServer(eng, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	mon, err := New(srv, Config{CheckpointPath: path})
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.SetCanary(X[:32], y[:32]); err != nil {
		t.Fatal(err)
	}
	probes := X[32:]
	wantClean, err := eng.PredictBatch(probes)
	if err != nil {
		t.Fatal(err)
	}

	inj, err := faults.NewInjector(5e-4, rand.New(rand.NewSource(77)))
	if err != nil {
		t.Fatal(err)
	}
	flips := 0
	for attempt := 0; attempt < 100 && flips == 0; attempt++ {
		flips = srv.Engine().Binary().InjectWordFaults(inj)
	}
	if flips == 0 {
		t.Fatal("word injector never flipped a bit")
	}
	rep, err := mon.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Quarantined) == 0 {
		t.Fatalf("scrub missed frozen-plane corruption: %+v", rep)
	}
	rrep, err := mon.Repair()
	if err != nil {
		t.Fatal(err)
	}
	if rrep.Source != "checkpoint" || !rrep.Swapped {
		t.Fatalf("repair report %+v, want checkpoint reload", rrep)
	}
	got, err := srv.PredictBatch(probes)
	if err != nil {
		t.Fatal(err)
	}
	samePreds(t, "reloaded frozen serving", got, wantClean)
	if st := mon.Status(); st.Degraded {
		t.Fatalf("still degraded after reload: %+v", st)
	}
}

// TestBackgroundLoopHealsWithoutIntervention: the scrub loop alone must
// take a corrupted server back to healthy.
func TestBackgroundLoopHealsWithoutIntervention(t *testing.T) {
	m, X, y := fixture(t, 480, 4)
	pristine := m.Clone()
	ckpt := saveCheckpoint(t, m)
	srv, err := serve.NewServer(infer.NewEngine(m), serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	mon, err := New(srv, Config{CheckpointPath: ckpt, ScrubEvery: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.SetCanary(X[:32], y[:32]); err != nil {
		t.Fatal(err)
	}
	mon.Start()
	defer mon.Stop()

	inj, err := faults.NewInjector(2e-3, rand.New(rand.NewSource(31)))
	if err != nil {
		t.Fatal(err)
	}
	corruptLearner(t, m, 0, inj)
	corruptLearner(t, m, 3, inj)

	deadline := time.Now().Add(5 * time.Second)
	for {
		st := mon.Status()
		if st.Repairs >= 2 && !st.Degraded {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background loop did not heal in time: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	want, err := infer.NewEngine(pristine).PredictBatch(X[32:])
	if err != nil {
		t.Fatal(err)
	}
	got, err := srv.PredictBatch(X[32:])
	if err != nil {
		t.Fatal(err)
	}
	samePreds(t, "background-healed serving", got, want)
	_ = y
}

// TestRepairHealsPlanesDespiteBrokenCheckpoint: a missing repair
// checkpoint dooms only the learners that needed it — plane-only
// corruption must still heal by re-threshold, and the background
// auto-repair must stop retrying the hopeless learner instead of
// re-quantizing the model every tick.
func TestRepairHealsPlanesDespiteBrokenCheckpoint(t *testing.T) {
	m, X, y := fixture(t, 480, 4)
	ckpt := saveCheckpoint(t, m)
	eng, err := infer.NewBinaryEngine(m)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.NewServer(eng, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	mon, err := New(srv, Config{CheckpointPath: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.SetCanary(X[:32], y[:32]); err != nil {
		t.Fatal(err)
	}

	// Corrupt learner 0's float memory and some quantized planes.
	injF, err := faults.NewInjector(2e-3, rand.New(rand.NewSource(21)))
	if err != nil {
		t.Fatal(err)
	}
	for flips := 0; flips == 0; {
		flips = m.InjectLearnerFaults(0, injF)
	}
	injW, err := faults.NewInjector(5e-4, rand.New(rand.NewSource(22)))
	if err != nil {
		t.Fatal(err)
	}
	for flips := 0; flips == 0; {
		flips = srv.Engine().Binary().InjectWordFaults(injW)
	}
	rep, err := mon.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if !contains(rep.Quarantined, 0) {
		t.Fatalf("scrub missed the float corruption: %+v", rep)
	}

	// Now the repair source disappears.
	if err := os.Remove(ckpt); err != nil {
		t.Fatal(err)
	}
	rrep, err := mon.Repair()
	if err != nil {
		t.Fatal(err)
	}
	if !contains(rrep.Failed, 0) {
		t.Fatalf("repair should fail learner 0 without its checkpoint: %+v", rrep)
	}
	if contains(rrep.Repaired, 0) {
		t.Fatalf("learner 0 repaired from a deleted checkpoint: %+v", rrep)
	}
	st := mon.Status()
	if !st.Degraded || !contains(st.Quarantined, 0) {
		t.Fatalf("learner 0 should stay quarantined: %+v", st)
	}
	// Every plane-only learner healed despite the checkpoint failure.
	if got := len(st.Quarantined); got != 1 {
		t.Fatalf("%d learners quarantined, want only the float-corrupted one: %+v", got, st)
	}
	// A repeat repair with nothing new to try is cheap and hopeless:
	// the auto-repair gate must report stuck.
	if mon.autoRepairable() {
		t.Fatal("auto-repair should be parked after a total failure")
	}
	// A fresh detection un-parks it.
	for flips := 0; flips == 0; {
		flips = srv.Engine().Binary().InjectWordFaults(injW)
	}
	if _, err := mon.Scrub(); err != nil {
		t.Fatal(err)
	}
	if !mon.autoRepairable() {
		t.Fatal("auto-repair should retry after the quarantine picture changed")
	}
}

// TestCheckpointDisarmsOnForeignAdoption: after an operator-style swap
// the configured checkpoint no longer describes the serving model, so
// checkpoint repair must refuse to graft its stale weights until
// SetCheckpoint re-arms it with a checkpoint of the new model.
func TestCheckpointDisarmsOnForeignAdoption(t *testing.T) {
	m, X, y := fixture(t, 480, 4)
	ckpt := saveCheckpoint(t, m)
	srv, err := serve.NewServer(infer.NewEngine(m), serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	mon, err := New(srv, Config{CheckpointPath: ckpt})
	if err != nil {
		t.Fatal(err)
	}

	// An operator swap installs a DIFFERENT (retrained-style) model with
	// the same geometry.
	other := m.Clone()
	if err := other.Refit(X, y); err != nil {
		t.Fatal(err)
	}
	if err := srv.Swap(infer.NewEngine(other)); err != nil {
		t.Fatal(err)
	}
	rep, err := mon.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Adopted {
		t.Fatalf("scrub should adopt the foreign engine: %+v", rep)
	}

	// Corrupt a learner of the adopted model: repair must NOT restore
	// from the stale checkpoint of the old model.
	inj, err := faults.NewInjector(2e-3, rand.New(rand.NewSource(51)))
	if err != nil {
		t.Fatal(err)
	}
	for flips := 0; flips == 0; {
		flips = other.InjectLearnerFaults(1, inj)
	}
	if _, err := mon.Scrub(); err != nil {
		t.Fatal(err)
	}
	rrep, err := mon.Repair()
	if err != nil {
		t.Fatal(err)
	}
	if contains(rrep.Repaired, 1) || !contains(rrep.Failed, 1) {
		t.Fatalf("disarmed checkpoint still used for repair: %+v", rrep)
	}

	// Re-arm with a checkpoint of the CURRENT model: repair works again.
	// (Restore learner 1 first so the new checkpoint is clean.)
	pristineOther := other.Clone()
	ckpt2 := saveCheckpoint(t, pristineOther)
	if err := mon.SetCheckpoint(ckpt2); err != nil {
		t.Fatal(err)
	}
	rrep, err = mon.Repair()
	if err != nil {
		t.Fatal(err)
	}
	if !contains(rrep.Repaired, 1) || rrep.Source != "checkpoint" {
		t.Fatalf("re-armed checkpoint repair failed: %+v", rrep)
	}
}

// TestScrubNeverMasksWholeEnsemble: when every learner is corrupted at
// once, the scrub must keep one serving (an all-zero-alpha model would
// answer class 0 for everything with a 200) and surface the event in
// Status.
func TestScrubNeverMasksWholeEnsemble(t *testing.T) {
	m, X, y := fixture(t, 480, 4)
	srv, err := serve.NewServer(infer.NewEngine(m), serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	mon, err := New(srv, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.SetCanary(X[:32], y[:32]); err != nil {
		t.Fatal(err)
	}
	inj, err := faults.NewInjector(2e-3, rand.New(rand.NewSource(61)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range m.Learners {
		for flips := 0; flips == 0; {
			flips = m.InjectLearnerFaults(i, inj)
		}
	}
	rep, err := mon.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	nl := len(m.Learners)
	if len(rep.Quarantined) != nl-1 {
		t.Fatalf("quarantined %d of %d learners, want all but one: %+v", len(rep.Quarantined), nl, rep)
	}
	st := mon.Status()
	if len(st.Quarantined) != nl-1 || st.LastError == "" {
		t.Fatalf("total-corruption event not surfaced: %+v", st)
	}
}
