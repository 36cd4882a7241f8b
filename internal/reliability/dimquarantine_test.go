package reliability

import (
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"boosthd/internal/boosthd"
	"boosthd/internal/faults"
	"boosthd/internal/hdc"
	"boosthd/internal/infer"
	"boosthd/internal/serve"
	"boosthd/internal/trainer"
)

// wideFixture trains an ensemble whose learners span several signature
// segments at segWords=1 (one 64-dim word per segment), so dimension
// quarantine is distinguishable from learner quarantine.
func wideFixture(t testing.TB) (*boosthd.Model, [][]float64, []int) {
	t.Helper()
	return fixture(t, 2048, 4) // 512 dims per learner = 8 words = 8 segments
}

// flipPlaneWord flips one bit of one (learner, class) sign-plane word
// through the clone-and-swap injection path — a targeted, silent word
// fault (versions and stored popcounts untouched).
func flipPlaneWord(bin *infer.BinaryModel, learner, class, word int, bit uint) {
	bin.ApplyWordRepair(false, func(l, c int, sign, mask []uint64) {
		if l == learner && c == class {
			sign[word] ^= 1 << bit
		}
	})
}

// TestDimQuarantineMasksOnlyCorruptedWords: a single flipped plane word
// must be attributed to its segment, dimension-masked (the learner
// keeps voting), served bit-for-bit like a clean model with that word
// masked out at quantize time, and repaired surgically by a
// re-threshold of only that learner.
func TestDimQuarantineMasksOnlyCorruptedWords(t *testing.T) {
	m, X, y := wideFixture(t)
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
	mon, err := New(srv, Config{SegmentWords: 1})
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
	wantClean, err := pristineEng.PredictBatch(probes)
	if err != nil {
		t.Fatal(err)
	}

	const target, word = 2, 3
	flipPlaneWord(srv.Engine().Binary(), target, 1, word, 17)

	rep, err := mon.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Quarantined) != 0 {
		t.Fatalf("single-word fault escalated to full quarantine: %+v", rep)
	}
	if !contains(rep.DimMasked, target) || len(rep.DimMasked) != 1 {
		t.Fatalf("dimension mask missed the corrupted learner: %+v", rep)
	}
	if rep.MaskedWords != 1 {
		t.Fatalf("masked %d words for a single-word fault, want 1", rep.MaskedWords)
	}
	if !rep.Swapped {
		t.Fatal("dimension quarantine did not swap the serving engine")
	}
	st := mon.Status()
	h := st.Ledger[target]
	if h.State != "degraded" || h.MaskedWords != 1 {
		t.Fatalf("ledger entry for the masked learner: %+v", h)
	}
	wantFrac := 1 - 64.0/512.0
	if h.HealthyFraction < wantFrac-1e-9 || h.HealthyFraction > wantFrac+1e-9 {
		t.Fatalf("healthy fraction %v, want %v", h.HealthyFraction, wantFrac)
	}
	if !st.Degraded {
		t.Fatal("status not degraded while a segment is masked")
	}

	// The masked serving engine must equal the pristine binary model
	// with the corrupted segment's words masked out at quantize time.
	healthy := make([][]uint64, len(m.Learners))
	hm := make([]uint64, 8)
	for w := range hm {
		hm[w] = ^uint64(0)
	}
	hm[word] = 0
	healthy[target] = hm
	refEng, err := infer.RemaskDims(pristineEng, pristine, make([]bool, len(m.Learners)), healthy)
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
	samePreds(t, "dimension-masked serving", gotMasked, wantMasked)

	rrep, err := mon.Repair()
	if err != nil {
		t.Fatal(err)
	}
	if !contains(rrep.Repaired, target) || rrep.Source != "rethreshold" || len(rrep.Failed) != 0 {
		t.Fatalf("repair report %+v, want learner %d via rethreshold", rrep, target)
	}
	got, err := srv.PredictBatch(probes)
	if err != nil {
		t.Fatal(err)
	}
	samePreds(t, "post-repair serving", got, wantClean)
	st = mon.Status()
	if st.Degraded || st.MaskedWords != 0 {
		t.Fatalf("monitor still degraded after surgical repair: %+v", st)
	}
}

// TestDimQuarantineFloatSegmentRestore: float corruption confined to
// one dimension segment must be masked at dimension granularity and
// repaired by restoring ONLY that segment's ranges from the checkpoint.
func TestDimQuarantineFloatSegmentRestore(t *testing.T) {
	m, X, y := wideFixture(t)
	pristine := m.Clone()
	ckpt := saveCheckpoint(t, m)
	srv, err := serve.NewServer(infer.NewEngine(m), serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	mon, err := New(srv, Config{SegmentWords: 1, CheckpointPath: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.SetCanary(X[:32], y[:32]); err != nil {
		t.Fatal(err)
	}
	probes := X[32:]
	wantClean, err := infer.NewEngine(pristine).PredictBatch(probes)
	if err != nil {
		t.Fatal(err)
	}

	// Corrupt dims [128,192) of learner 1 — exactly segment 2 at
	// segWords=1 — through the locked mutation path (version bumps,
	// strict mode attributes by content).
	const target, seg = 1, 2
	m.Learners[target].MutateClass(func(class []hdc.Vector) {
		for _, cv := range class {
			for k := 128; k < 192; k++ {
				cv[k] = 1e30
			}
		}
	})

	rep, err := mon.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if !contains(rep.DimMasked, target) || len(rep.Quarantined) != 0 {
		t.Fatalf("float segment corruption not dimension-masked: %+v", rep)
	}
	if got := mon.ledger[target].maskedSegs(); len(got) != 1 || got[0] != seg {
		t.Fatalf("masked segments %v, want only %d", got, seg)
	}
	if mon.ledger[target].segs[seg] != segFloat {
		t.Fatal("corruption not attributed to the float representation")
	}

	rrep, err := mon.Repair()
	if err != nil {
		t.Fatal(err)
	}
	if !contains(rrep.Repaired, target) || rrep.Source != "checkpoint" {
		t.Fatalf("repair report %+v, want learner %d via checkpoint", rrep, target)
	}
	if rrep.Segments != 1 {
		t.Fatalf("restored %d segments, want exactly the corrupted one", rrep.Segments)
	}
	got, err := srv.PredictBatch(probes)
	if err != nil {
		t.Fatal(err)
	}
	samePreds(t, "post-segment-restore serving", got, wantClean)
}

// TestLearnerGranularFallback: MinHealthyFraction >= 1 forces the PR-4
// whole-learner behavior — every attributed fault escalates to a full
// alpha-mask quarantine.
func TestLearnerGranularFallback(t *testing.T) {
	m, X, y := wideFixture(t)
	eng, err := infer.NewBinaryEngine(m)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.NewServer(eng, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	mon, err := New(srv, Config{SegmentWords: 1, MinHealthyFraction: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.SetCanary(X[:32], y[:32]); err != nil {
		t.Fatal(err)
	}
	flipPlaneWord(srv.Engine().Binary(), 0, 0, 5, 3)
	rep, err := mon.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if !contains(rep.Quarantined, 0) || len(rep.DimMasked) != 0 {
		t.Fatalf("learner-granular mode did not fully quarantine: %+v", rep)
	}
}

// TestCriticalSegmentEscalates: the same one-word fault is dimension-
// masked in a segment the canary ranked harmless but quarantines the
// whole learner in a segment ranked past the quarantine budget — one
// criticality signal chooses between the two actions.
func TestCriticalSegmentEscalates(t *testing.T) {
	m, X, y := wideFixture(t)
	eng, err := infer.NewBinaryEngine(m)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.NewServer(eng, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	mon, err := New(srv, Config{SegmentWords: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.SetCanary(X[:32], y[:32]); err != nil {
		t.Fatal(err)
	}
	const word, harmless, critical = 3, 0, 1
	mon.ledger[harmless].crit[word] = 0
	mon.ledger[critical].crit[word] = 2 * mon.Config().QuarantineDrop
	flipPlaneWord(srv.Engine().Binary(), harmless, 0, word, 5)
	flipPlaneWord(srv.Engine().Binary(), critical, 0, word, 5)
	rep, err := mon.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if !contains(rep.DimMasked, harmless) || contains(rep.Quarantined, harmless) {
		t.Fatalf("harmless segment fault not dimension-masked: %+v", rep)
	}
	if !contains(rep.Quarantined, critical) || contains(rep.DimMasked, critical) {
		t.Fatalf("critical segment fault not escalated to quarantine: %+v", rep)
	}
}

// TestDimMaskEscalatesWhenTooBroad: when most of a learner's segments
// are corrupted, the healthy fraction floor escalates to a full
// quarantine instead of serving a sliver of the learner.
func TestDimMaskEscalatesWhenTooBroad(t *testing.T) {
	m, X, y := wideFixture(t)
	eng, err := infer.NewBinaryEngine(m)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.NewServer(eng, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	mon, err := New(srv, Config{SegmentWords: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.SetCanary(X[:32], y[:32]); err != nil {
		t.Fatal(err)
	}
	// Corrupt 5 of learner 3's 8 words: healthy fraction 3/8 < 0.5.
	for w := 0; w < 5; w++ {
		flipPlaneWord(srv.Engine().Binary(), 3, 0, w, uint(w+1))
	}
	rep, err := mon.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if !contains(rep.Quarantined, 3) {
		t.Fatalf("broad corruption not escalated to full quarantine: %+v", rep)
	}
}

// TestRepairRechecksFloatBetweenScrubAndRepair: float corruption that
// lands AFTER the scrub attributed a plane-only fault must not be
// re-thresholded into the serving planes and re-signed as healthy —
// repair re-checks fresh signatures and restores from the checkpoint.
func TestRepairRechecksFloatBetweenScrubAndRepair(t *testing.T) {
	m, X, y := wideFixture(t)
	pristine := m.Clone()
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
	mon, err := New(srv, Config{SegmentWords: 1, CheckpointPath: ckpt})
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
	wantClean, err := pristineEng.PredictBatch(probes)
	if err != nil {
		t.Fatal(err)
	}

	// Scrub attributes a plane-only word fault on learner 1...
	const target = 1
	flipPlaneWord(srv.Engine().Binary(), target, 0, 2, 11)
	rep, err := mon.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if !contains(rep.DimMasked, target) {
		t.Fatalf("plane fault not dimension-masked: %+v", rep)
	}
	// ...then the learner's FLOAT memory corrupts before Repair runs.
	inj, err := faults.NewInjector(2e-3, rand.New(rand.NewSource(23)))
	if err != nil {
		t.Fatal(err)
	}
	for flips := 0; flips == 0; {
		flips = m.InjectLearnerFaults(target, inj)
	}

	rrep, err := mon.Repair()
	if err != nil {
		t.Fatal(err)
	}
	if !contains(rrep.Repaired, target) || rrep.Source != "checkpoint" {
		t.Fatalf("repair report %+v, want learner %d restored via checkpoint (not rethresholded from corrupted float memory)", rrep, target)
	}
	got, err := srv.PredictBatch(probes)
	if err != nil {
		t.Fatal(err)
	}
	samePreds(t, "post-repair serving", got, wantClean)
	// And a follow-up scrub must be clean — nothing was laundered.
	rep, err = mon.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.IntegrityFaults) != 0 || len(rep.Quarantined)+len(rep.DimMasked) != 0 {
		t.Fatalf("post-repair scrub not clean: %+v", rep)
	}
}

// TestFrozenDimQuarantine: a frozen binary snapshot (no float memory)
// still gets word-granular quarantine — segment attribution over its
// planes, dimension-masked serving, criticality baselining over the
// frozen views — and repairs by wholesale checkpoint reload.
func TestFrozenDimQuarantine(t *testing.T) {
	m, X, y := wideFixture(t)
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
	srv, err := serve.NewServer(eng, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	mon, err := New(srv, Config{SegmentWords: 1})
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
	flipPlaneWord(srv.Engine().Binary(), 0, 0, 6, 42)
	rep, err := mon.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if !contains(rep.DimMasked, 0) || len(rep.Quarantined) != 0 {
		t.Fatalf("frozen word fault not dimension-masked: %+v", rep)
	}
	// Without a checkpoint no source can serve a frozen snapshot: the
	// learner is reported failed like any other unserved learner, the
	// auto-repair parks, and arming a checkpoint un-parks it.
	rrep, err := mon.Repair()
	if err != nil || !contains(rrep.Failed, 0) || rrep.Reason == "" || !mon.Status().Degraded {
		t.Fatalf("frozen repair without a source: report %+v, err %v", rrep, err)
	}
	if mon.autoRepairable() {
		t.Fatal("auto-repair should be parked with no source for a frozen snapshot")
	}
	if err := mon.SetCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	if !mon.autoRepairable() {
		t.Fatal("arming a checkpoint should un-park auto-repair")
	}
	rrep, err = mon.Repair()
	if err != nil {
		t.Fatal(err)
	}
	if rrep.Source != "checkpoint" || !rrep.Swapped {
		t.Fatalf("frozen repair report %+v, want checkpoint reload", rrep)
	}
	got, err := srv.PredictBatch(probes)
	if err != nil {
		t.Fatal(err)
	}
	samePreds(t, "reloaded frozen serving", got, wantClean)
}

// TestSignedUpdatesKeepScrubStrict: with the trainer→monitor handoff
// wired, streaming updates (version bumps + announced signatures) scrub
// clean, while an unannounced mutation is still caught — after the one
// grace pass that absorbs handoff races — and repaired.
func TestSignedUpdatesKeepScrubStrict(t *testing.T) {
	m, X, y := wideFixture(t)
	ckpt := saveCheckpoint(t, m)
	srv, err := serve.NewServer(infer.NewEngine(m), serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tr, err := trainer.New(srv, trainer.Config{BufferCap: 512, MinRetrain: 32})
	if err != nil {
		t.Fatal(err)
	}
	mon, err := New(srv, Config{SegmentWords: 1, SignedUpdates: true, CheckpointPath: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	tr.SetMutationObserver(mon.NoteMutation)

	// Streaming updates through the contract: announced, so strict
	// scrubbing must stay clean.
	for i := range X[:64] {
		if err := tr.Observe(X[i], y[i]); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := mon.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.IntegrityFaults) != 0 || len(rep.Quarantined) != 0 || len(rep.DimMasked) != 0 {
		t.Fatalf("announced streaming updates flagged as corruption: %+v", rep)
	}

	// An unannounced locked mutation (fault injection bumps versions
	// without a handoff) gets one pass of grace, then is corruption.
	inj, err := faults.NewInjector(2e-3, rand.New(rand.NewSource(17)))
	if err != nil {
		t.Fatal(err)
	}
	for flips := 0; flips == 0; {
		flips = m.InjectLearnerFaults(2, inj)
	}
	rep, err = mon.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if contains(rep.IntegrityFaults, 2) {
		t.Fatalf("grace pass flagged before the handoff could land: %+v", rep)
	}
	rep, err = mon.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if !contains(rep.IntegrityFaults, 2) {
		t.Fatalf("unannounced mutation never flagged: %+v", rep)
	}
	if len(rep.DimMasked) == 0 && len(rep.Quarantined) == 0 {
		t.Fatalf("unannounced mutation not masked: %+v", rep)
	}
	// More announced updates keep flowing while degraded.
	for i := range X[:16] {
		if err := tr.Observe(X[i], y[i]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := mon.Repair(); err != nil {
		t.Fatal(err)
	}
	st := mon.Status()
	if st.Degraded {
		t.Fatalf("still degraded after repair: %+v", st)
	}
}

// TestDimMaskedServingUnderLoad is the -race acceptance check for the
// dimension tier: 64 concurrent clients hammer both backends while a
// word fault is masked and repaired; every quarantined-state prediction
// must match the clean dimension-masked reference bit-for-bit, and
// post-repair predictions the pristine model.
func TestDimMaskedServingUnderLoad(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 4 {
		runtime.GOMAXPROCS(4)
	}
	for _, backend := range []string{"float", "binary"} {
		t.Run(backend, func(t *testing.T) {
			m, X, y := wideFixture(t)
			pristine := m.Clone()
			ckpt := saveCheckpoint(t, m)
			var eng, pristineEng *infer.Engine
			var err error
			if backend == "binary" {
				eng, err = infer.NewBinaryEngine(m)
				if err == nil {
					pristineEng, err = infer.NewBinaryEngine(pristine)
				}
			} else {
				eng = infer.NewEngine(m)
				pristineEng = infer.NewEngine(pristine)
			}
			if err != nil {
				t.Fatal(err)
			}
			srv, err := serve.NewServer(eng, serve.Config{})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			mon, err := New(srv, Config{SegmentWords: 1, CheckpointPath: ckpt})
			if err != nil {
				t.Fatal(err)
			}
			if err := mon.SetCanary(X[:32], y[:32]); err != nil {
				t.Fatal(err)
			}
			probes := X[32:]
			wantClean, err := pristineEng.PredictBatch(probes)
			if err != nil {
				t.Fatal(err)
			}

			stop := make(chan struct{})
			wg := hammer(t, srv, X, 64, stop)

			const target, seg = 1, 4
			if backend == "binary" {
				flipPlaneWord(srv.Engine().Binary(), target, 0, seg, 9)
			} else {
				m.Learners[target].MutateClass(func(class []hdc.Vector) {
					for _, cv := range class {
						for k := seg * 64; k < (seg+1)*64; k++ {
							cv[k] = -cv[k] + 1
						}
					}
				})
			}
			rep, err := mon.Scrub()
			if err != nil {
				t.Fatal(err)
			}
			if !contains(rep.DimMasked, target) || len(rep.Quarantined) != 0 {
				t.Fatalf("word fault not dimension-masked under load: %+v", rep)
			}

			// Bit-for-bit: masked serving == pristine model with the same
			// segment masked out.
			healthy := make([][]uint64, len(m.Learners))
			hm := make([]uint64, 8)
			for w := range hm {
				hm[w] = ^uint64(0)
			}
			hm[seg] = 0
			healthy[target] = hm
			refEng, err := infer.RemaskDims(pristineEng, pristine, make([]bool, len(m.Learners)), healthy)
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
			samePreds(t, backend+" dimension-masked serving", gotMasked, wantMasked)

			rrep, err := mon.Repair()
			if err != nil {
				t.Fatal(err)
			}
			if !contains(rrep.Repaired, target) {
				t.Fatalf("repair missed the masked learner: %+v", rrep)
			}
			got, err := srv.PredictBatch(probes)
			if err != nil {
				t.Fatal(err)
			}
			samePreds(t, backend+" post-repair serving", got, wantClean)
			close(stop)
			wg.Wait()
		})
	}
}

// FuzzSegmentAttribution: whatever (learner, class, plane, word, bit) a
// silent fault lands on, the scrub must flag that learner and the mask
// must cover exactly the segment containing the flipped word.
func FuzzSegmentAttribution(f *testing.F) {
	m, X, y := wideFixture(f)
	pristineEng, err := infer.NewBinaryEngine(m.Clone())
	if err != nil {
		f.Fatal(err)
	}
	_ = pristineEng
	f.Add(uint8(0), uint8(0), false, uint8(0), uint8(0))
	f.Add(uint8(3), uint8(2), true, uint8(7), uint8(63))
	f.Add(uint8(1), uint8(1), false, uint8(4), uint8(31))
	f.Fuzz(func(t *testing.T, learnerB, classB uint8, hitMask bool, wordB, bitB uint8) {
		learner := int(learnerB) % len(m.Learners)
		class := int(classB) % m.Cfg.Classes
		word := int(wordB) % 8
		bit := uint(bitB) % 64

		eng, err := infer.NewBinaryEngine(m.Clone())
		if err != nil {
			t.Fatal(err)
		}
		srv, err := serve.NewServer(eng, serve.Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		mon, err := New(srv, Config{SegmentWords: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := mon.SetCanary(X[:16], y[:16]); err != nil {
			t.Fatal(err)
		}
		mutated := false
		srv.Engine().Binary().ApplyWordRepair(false, func(l, c int, sign, mask []uint64) {
			if l != learner || c != class {
				return
			}
			if hitMask {
				// Flipping a mask bit ON where the tail is padded would
				// be outside the logical dimensions; segments are 512 wide
				// here (8 full words), so every bit is in range.
				mask[word] ^= 1 << bit
			} else {
				sign[word] ^= 1 << bit
			}
			mutated = true
		})
		if !mutated {
			t.Fatal("fault landed nowhere")
		}
		rep, err := mon.Scrub()
		if err != nil {
			t.Fatal(err)
		}
		flaggedDim := contains(rep.DimMasked, learner)
		flaggedFull := contains(rep.Quarantined, learner)
		if !flaggedDim && !flaggedFull {
			t.Fatalf("injected word %d bit %d of learner %d undetected: %+v", word, bit, learner, rep)
		}
		if flaggedDim {
			if got := mon.ledger[learner].maskedSegs(); len(got) != 1 || got[0] != word {
				t.Fatalf("masked segments %v for a fault in word %d", got, word)
			}
		}
	})
}
