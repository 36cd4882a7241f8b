// Package boosthd implements the paper's primary contribution: BoostHD,
// a boosted ensemble of OnlineHD weak learners over a partitioned
// hyperdimensional space (Algorithm 1, Figure 1).
//
// A single nonlinear encoder maps features into a TotalDim-dimensional
// space; learner i owns the contiguous dimension segment
// [i*TotalDim/NL, (i+1)*TotalDim/NL) and sees only that slice of every
// encoding. Learners are trained sequentially under SAMME boosting — each
// round re-weights the samples its predecessors misclassified — and
// inference combines the learners' votes (or cosine scores) weighted by
// their importance alpha_i. Training is inherently sequential; inference
// parallelizes across samples.
package boosthd

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"boosthd/internal/encoding"
	"boosthd/internal/ensemble"
	"boosthd/internal/faults"
	"boosthd/internal/hdc"
	"boosthd/internal/obs"
	"boosthd/internal/onlinehd"
	"boosthd/internal/par"
)

// Aggregation selects how weak-learner outputs combine at inference.
type Aggregation int

const (
	// Vote is Algorithm 1's rule: argmax over alpha-weighted hard votes.
	Vote Aggregation = iota
	// Score aggregates alpha-weighted per-class cosine similarities; it
	// preserves learner confidence and is used by the score-ablation bench.
	Score
)

// String names the aggregation rule.
func (a Aggregation) String() string {
	switch a {
	case Vote:
		return "vote"
	case Score:
		return "score"
	default:
		return fmt.Sprintf("Aggregation(%d)", int(a))
	}
}

// Config describes a BoostHD ensemble. The paper's reference setup is
// NL=10 learners sharing Dtotal dimensions, each weak learner an OnlineHD
// model with lr=0.035 and bootstrap sampling.
type Config struct {
	TotalDim    int     // Dtotal: dimensions shared by all learners
	NumLearners int     // NL: number of weak learners / partitions
	Classes     int     // number of labels
	LR          float64 // weak-learner OnlineHD learning rate
	Epochs      int     // weak-learner training passes
	Bootstrap   bool    // weighted bootstrap inside weak learners
	Encoder     encoding.Kind
	Aggregation Aggregation
	Gamma       float64 // kernel bandwidth; <= 0 selects the median heuristic
	GammaSpread float64 // per-learner bandwidth spread factor (see Train); 0 = single scale
	Seed        int64

	// Projection selects the encoder's projection representation: the
	// zero value keeps the stored math/rand Gaussian matrix (and
	// byte-identical behavior for existing checkpoints);
	// encoding.ProjSeeded derives counter-based Rademacher rows from the
	// seed, so checkpoints carry no projection and the resident plane of
	// sign bytes and phases is rebuilt, and checked, from the seed.
	// Seeded checkpoints are framed at a newer wire version so
	// pre-seeded builds reject them loudly instead of silently
	// rebuilding the wrong encoder.
	Projection encoding.Projection
}

// DefaultConfig returns the paper's Section IV ensemble hyperparameters:
// NL weak learners over a shared Dtotal budget, lr 0.035, bootstrap
// sampling, the nonlinear encoder. Aggregation defaults to Score — the
// literal reading of Algorithm 1's inference rule argmax(sum ys*alpha) —
// and GammaSpread to 4, realizing Figure 1's per-learner encoding boxes
// as a multi-scale bandwidth ensemble (the strongest configuration in our
// calibration sweeps; set GammaSpread = 0 for a single shared encoder).
func DefaultConfig(totalDim, numLearners, classes int) Config {
	return Config{
		TotalDim:    totalDim,
		NumLearners: numLearners,
		Classes:     classes,
		LR:          0.035,
		Epochs:      20,
		Bootstrap:   true,
		Encoder:     encoding.Nonlinear,
		Aggregation: Score,
		GammaSpread: 4,
		Seed:        1,
	}
}

// segment is a half-open dimension range owned by one weak learner.
type segment struct{ lo, hi int }

// Model is a trained BoostHD ensemble.
type Model struct {
	Cfg      Config
	Enc      *encoderStack
	Learners []*onlinehd.HVClassifier
	Alphas   []float64
	segs     []segment
	gamma    float64 // resolved base bandwidth (serialization rebuilds encoders from it)
	inputDim int     // feature width the encoders were built for

	// dimMasks carries per-learner healthy-dimension masks on quarantine
	// views built by MaskedView: bit d (word d/64, bit d%64, learner-local
	// dimensions) set means dimension d's class memory is trusted. A nil
	// outer slice or nil entry means every dimension is trusted — the base
	// model never carries masks. Scoring treats a masked dimension's class
	// component as zero, exactly as if the stored value were zeroed.
	dimMasks [][]uint64
}

// DimMask returns learner i's healthy-dimension mask, or nil when every
// dimension is trusted. Both scoring backends read it: the float path
// zeroes the untrusted class components, the packed-binary path drops
// them from the confidence masks. The mask must not be modified.
func (m *Model) DimMask(i int) []uint64 {
	if m.dimMasks == nil {
		return nil
	}
	//hdlint:ignore snapshotalias views never rewrite an installed mask; MaskedView and WithDelta build new tables
	return m.dimMasks[i]
}

// partition splits totalDim into n contiguous segments whose sizes differ
// by at most one (the first totalDim%n segments get the extra dimension).
func partition(totalDim, n int) []segment {
	segs := make([]segment, n)
	base := totalDim / n
	rem := totalDim % n
	lo := 0
	for i := range segs {
		size := base
		if i < rem {
			size++
		}
		segs[i] = segment{lo: lo, hi: lo + size}
		lo += size
	}
	return segs
}

// Train fits a BoostHD ensemble on raw features X with labels y.
func Train(X [][]float64, y []int, cfg Config) (*Model, error) {
	if len(X) == 0 {
		return nil, fmt.Errorf("boosthd: empty training set")
	}
	if len(X) != len(y) {
		return nil, fmt.Errorf("boosthd: %d rows vs %d labels", len(X), len(y))
	}
	if cfg.NumLearners < 1 {
		return nil, fmt.Errorf("boosthd: need >= 1 learner, got %d", cfg.NumLearners)
	}
	if cfg.TotalDim < cfg.NumLearners {
		return nil, fmt.Errorf("boosthd: TotalDim %d < NumLearners %d: every partition needs at least one dimension",
			cfg.TotalDim, cfg.NumLearners)
	}
	if cfg.Classes < 2 {
		return nil, fmt.Errorf("boosthd: need >= 2 classes, got %d", cfg.Classes)
	}
	gamma := cfg.Gamma
	if gamma <= 0 {
		gamma = encoding.GammaHeuristic(X, 0.5, rand.New(rand.NewSource(cfg.Seed+55)))
	}
	enc, err := newEncoderStack(len(X[0]), cfg, gamma)
	if err != nil {
		return nil, fmt.Errorf("boosthd: %w", err)
	}

	m := &Model{
		Cfg:      cfg,
		Enc:      enc,
		Learners: make([]*onlinehd.HVClassifier, cfg.NumLearners),
		segs:     partition(cfg.TotalDim, cfg.NumLearners),
		gamma:    gamma,
		inputDim: len(X[0]),
	}
	if err := m.boostFit(X, y); err != nil {
		return nil, fmt.Errorf("boosthd: %w", err)
	}
	return m, nil
}

// boostFit runs Algorithm 1's sequential boosting loop over rows X: each
// round encodes its learner's dimension segment of every row into one
// reused buffer (EncodeSegment), fits a fresh weak learner on it under
// the evolving sample distribution, installs it, and records its
// importance alpha. Shared by Train and Refit so an in-place refit is
// bit-identical to a cold retrain from the same encoder stack and data.
// Not synchronized with serving — run it on a model no reader holds.
func (m *Model) boostFit(X [][]float64, y []int) error {
	cfg := m.Cfg
	rng := rand.New(rand.NewSource(cfg.Seed + 977))
	var buf []float64
	results, err := ensemble.Boost(y, cfg.Classes, cfg.NumLearners,
		func(round int, w []float64) ([]int, error) {
			sub, b, err := m.EncodeSegment(round, X, buf)
			if err != nil {
				return nil, err
			}
			buf = b
			seg := m.segs[round]
			hv, err := onlinehd.NewHVClassifier(seg.hi-seg.lo, cfg.Classes, cfg.LR)
			if err != nil {
				return nil, err
			}
			opt := onlinehd.FitOptions{Epochs: cfg.Epochs, Weights: w, Bootstrap: cfg.Bootstrap}
			if cfg.Bootstrap {
				opt.Rng = rng
			}
			if err := hv.Fit(sub, y, opt); err != nil {
				return nil, err
			}
			m.Learners[round] = hv
			return hv.PredictBatch(sub), nil
		})
	if err != nil {
		return err
	}
	m.Alphas = make([]float64, len(results))
	for i, r := range results {
		m.Alphas[i] = r.Alpha
	}
	return nil
}

// pinLearners pins every learner's class vectors and norm cache for the
// duration of a batch, returning the learner-major norm snapshots and an
// unpin func. While pinned, mutators (Fit, InjectClassFaults) block, so
// the whole batch scores against one consistent model memory. Learners
// are pinned in index order and writers hold at most one learner's lock
// at a time, so concurrent pins cannot deadlock.
func (m *Model) pinLearners() (norms [][]float64, unpin func()) {
	norms = make([][]float64, len(m.Learners))
	unpins := make([]func(), len(m.Learners))
	for i := range m.Learners {
		norms[i], unpins[i] = m.pinLearner(i)
	}
	return norms, func() {
		for _, u := range unpins {
			u()
		}
	}
}

// pinLearner pins learner i's class vectors and norm cache, returning
// the norms it scores against and an unpin func.
func (m *Model) pinLearner(i int) (norms []float64, unpin func()) {
	l := m.Learners[i]
	norms, unpin = l.PinClass()
	if dm := m.DimMask(i); dm != nil {
		// A dimension-masked learner scores against class memory with
		// its untrusted components treated as zero, so the cached
		// full-width norms do not apply. The class vectors stay pinned
		// until unpin, so the masked norms computed here stay coherent
		// with every row scored meanwhile.
		//hdlint:ignore locksafety read under the learner's pin taken on the line above
		norms = maskedClassNorms(l.Class, dm)
	}
	return norms, unpin
}

// maskedBit reports whether dimension k is trusted under healthy.
//
//hd:hotpath
func maskedBit(healthy []uint64, k int) bool {
	return healthy[k>>6]&(1<<uint(k&63)) != 0
}

// maskedClassNorms computes per-class Euclidean norms with untrusted
// dimensions treated as zero. The accumulation replicates hdc.Norm over
// a class vector whose masked components were literally zeroed, so a
// dimension-masked model scores bit-for-bit like a clean model with
// those components zeroed and its norm cache refreshed.
func maskedClassNorms(class []hdc.Vector, healthy []uint64) []float64 {
	norms := make([]float64, len(class))
	for c, cv := range class {
		var s float64
		for k, v := range cv {
			if !maskedBit(healthy, k) {
				v = 0
			}
			s += v * v
		}
		norms[c] = math.Sqrt(s)
	}
	return norms
}

// inferScratch is the per-worker scoring state: reused across every row a
// worker classifies, so steady-state inference allocates nothing.
type inferScratch struct {
	agg  []float64 // alpha-weighted aggregate per class
	dots []float64 // per-class dot products within one segment
}

func (m *Model) newInferScratch() *inferScratch {
	return &inferScratch{
		agg:  make([]float64, m.Cfg.Classes),
		dots: make([]float64, m.Cfg.Classes),
	}
}

// segmentDotsMasked is hdc.Dots for a dimension-masked learner: class
// components at untrusted dimensions are read as zero. The query norm
// still accumulates over every dimension (the query is computed fresh
// and is never suspect), and the zeroed components go through the same
// multiply-add sequence as hdc.Dots over a literally zeroed class
// vector, so the scores are bit-identical to a clean model with those
// components zeroed at the same positions.
//
//hd:hotpath
func segmentDotsMasked(hseg hdc.Vector, class []hdc.Vector, dots []float64, healthy []uint64) (hn2 float64) {
	n := len(hseg)
	switch len(class) {
	case 2:
		c0, c1 := class[0][:n], class[1][:n]
		var d0, d1 float64
		for k, hv := range hseg {
			hn2 += hv * hv
			v0, v1 := c0[k], c1[k]
			if !maskedBit(healthy, k) {
				v0, v1 = 0, 0
			}
			d0 += hv * v0
			d1 += hv * v1
		}
		dots[0], dots[1] = d0, d1
	case 3:
		c0, c1, c2 := class[0][:n], class[1][:n], class[2][:n]
		var d0, d1, d2 float64
		for k, hv := range hseg {
			hn2 += hv * hv
			v0, v1, v2 := c0[k], c1[k], c2[k]
			if !maskedBit(healthy, k) {
				v0, v1, v2 = 0, 0, 0
			}
			d0 += hv * v0
			d1 += hv * v1
			d2 += hv * v2
		}
		dots[0], dots[1], dots[2] = d0, d1, d2
	default:
		for c := range dots {
			dots[c] = 0
		}
		for k, hv := range hseg {
			hn2 += hv * hv
			if !maskedBit(healthy, k) {
				for c := range class {
					dots[c] += hv * 0
				}
				continue
			}
			for c, cv := range class {
				dots[c] += hv * cv[k]
			}
		}
	}
	return hn2
}

// learnerScores writes learner i's cosine similarity to every class into
// scores (length Classes) for hseg, the query's encoding over the
// learner's dimension segment: one walk of the segment accumulates the
// query-segment norm and all per-class dots together (hdc.Dots), with
// untrusted components read as zero on a dimension-masked learner, then
// the zero-norm conventions of HVClassifier.Scores apply. norms are the
// learner's pinned class norms (pinLearners). It reports whether every
// score is finite. Serving (classifyEncoded) and the canary probe
// (EvaluateLearners) both score through it, so a learner is always
// evaluated the way it serves.
//
//hd:hotpath
func (m *Model) learnerScores(i int, hseg hdc.Vector, norms, scores []float64) (finite bool) {
	var hn float64
	if dm := m.DimMask(i); dm != nil {
		//hdlint:ignore locksafety callers pin the learner (pinLearner, or pinLearners for a batch)
		hn = math.Sqrt(segmentDotsMasked(hseg, m.Learners[i].Class, scores, dm))
	} else {
		//hdlint:ignore locksafety callers pin the learner (pinLearner, or pinLearners for a batch)
		hn = math.Sqrt(hdc.Dots(hseg, m.Learners[i].Class, scores))
	}
	finite = true
	for c, cn := range norms {
		if hn == 0 || cn == 0 {
			scores[c] = 0
			continue
		}
		scores[c] = scores[c] / (hn * cn)
		finite = finite && scores[c]-scores[c] == 0
	}
	return finite
}

// classifyEncoded scores a full-width encoding in one pass: every voting
// learner's cosine scores (learnerScores) fold, or its vote does, into
// the alpha-weighted aggregate. Arithmetic order matches the historical
// slice-per-learner path exactly, so predictions are bit-identical to it.
//
//hd:hotpath
func (m *Model) classifyEncoded(h hdc.Vector, norms [][]float64, sc *inferScratch) int {
	classes := m.Cfg.Classes
	for c := 0; c < classes; c++ {
		sc.agg[c] = 0
	}
	score := m.Cfg.Aggregation == Score
	for i := range m.Learners {
		if m.Alphas[i] == 0 {
			// A zero-alpha learner (quarantined, or judged worthless by
			// boosting) contributes nothing — and must not be scored at
			// all: corrupted class memory can hold NaN/Inf, and 0*NaN
			// would poison the aggregate the masking exists to protect.
			continue
		}
		seg := m.segs[i]
		if !m.learnerScores(i, h[seg.lo:seg.hi], norms[i], sc.dots) {
			// A NaN or infinite cosine (from a corrupted encoder plane,
			// class word or stored weight) would decide every aggregate
			// it joins, so the learner sits this query out as a
			// zero-alpha learner does. EvaluateLearners keeps scoring
			// it, so the canary still sees the collapse.
			continue
		}
		if score {
			for c := 0; c < classes; c++ {
				sc.agg[c] += m.Alphas[i] * sc.dots[c]
			}
		} else {
			vote := 0
			for c := 1; c < classes; c++ {
				if sc.dots[c] > sc.dots[vote] {
					vote = c
				}
			}
			sc.agg[vote] += m.Alphas[i]
		}
	}
	return argmax(sc.agg)
}

// argmax returns the lowest index of the maximum score.
//
//hd:hotpath
func argmax(s []float64) int {
	best := 0
	for c := 1; c < len(s); c++ {
		if s[c] > s[best] {
			best = c
		}
	}
	return best
}

// EncodedPredictor pins the learners' class memories and returns a
// sequential predictor over pre-encoded hypervectors plus a release func.
// The norm snapshots and scoring scratch are hoisted out of the returned
// closure, so each call is allocation- and lock-free — the scoring-stage
// equivalent of what PredictBatch does per worker, and the path
// score-only measurements must use to compare fairly against the binary
// backend's PredictBits. The predictor is not safe for concurrent use;
// release must be called exactly once, and mutators block until then.
func (m *Model) EncodedPredictor() (predict func(h hdc.Vector) int, release func()) {
	norms, unpin := m.pinLearners()
	sc := m.newInferScratch()
	return func(h hdc.Vector) int {
		return m.classifyEncoded(h, norms, sc)
	}, unpin
}

// predictBatchRows is the block size of the fused encode+score pipeline:
// each worker encodes a block of rows into its own reusable flat buffer —
// amortizing the projection-matrix sweep across the block — and scores it
// before moving to the next block, keeping memory bounded and encodings
// cache resident when consumed. It equals the encoder's row-block
// granularity so the nested EncodeBatchInto runs on the worker's own
// goroutine (one block = one work unit, no nested pool).
const predictBatchRows = encoding.BatchRowBlock

// PredictBatch classifies rows through the fused pipeline — the
// inference-phase parallelism the paper highlights, without the per-row
// encode and score allocations the naive path pays. The learners' class
// memories are pinned for the whole batch: concurrent Fit or fault
// injection waits, and every row scores against one consistent model.
func (m *Model) PredictBatch(X [][]float64) ([]int, error) {
	return m.PredictBatchStaged(X, nil)
}

// PredictBatchStaged is PredictBatch with per-phase accounting: when
// stages is non-nil, every worker adds its blocks' encode and score
// wall time to it (atomically — blocks run in parallel). Timing is
// taken at block granularity, around the encode call and the scoring
// loop, so the allocation-free scoring kernels themselves carry no
// instrumentation; a nil stages skips even the clock reads.
func (m *Model) PredictBatchStaged(X [][]float64, stages *obs.StageTimes) ([]int, error) {
	out := make([]int, len(X))
	if len(X) == 0 {
		return out, nil
	}
	D := m.Cfg.TotalDim
	norms, unpin := m.pinLearners()
	defer unpin()
	blocks := (len(X) + predictBatchRows - 1) / predictBatchRows
	workers := par.Workers(blocks)
	type worker struct {
		buf []float64
		sc  *inferScratch
	}
	ws := make([]*worker, workers)
	err := par.ForEachWorker(blocks, func(w, blk int) error {
		st := ws[w]
		if st == nil {
			st = &worker{buf: make([]float64, predictBatchRows*D), sc: m.newInferScratch()}
			ws[w] = st
		}
		lo := blk * predictBatchRows
		hi := lo + predictBatchRows
		if hi > len(X) {
			hi = len(X)
		}
		var t0 time.Time
		if stages != nil {
			t0 = time.Now()
		}
		if err := m.Enc.EncodeBatchInto(X[lo:hi], st.buf, D, 0); err != nil {
			return fmt.Errorf("boosthd: rows [%d,%d): %w", lo, hi, err)
		}
		var t1 time.Time
		if stages != nil {
			t1 = time.Now()
			stages.EncodeNS.Add(t1.Sub(t0).Nanoseconds())
		}
		for i := lo; i < hi; i++ {
			h := hdc.Vector(st.buf[(i-lo)*D : (i-lo+1)*D])
			out[i] = m.classifyEncoded(h, norms, st.sc)
		}
		if stages != nil {
			stages.ScoreNS.Add(time.Since(t1).Nanoseconds())
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Evaluate returns plain accuracy on a labeled set.
func (m *Model) Evaluate(X [][]float64, y []int) (float64, error) {
	if len(X) != len(y) || len(y) == 0 {
		return 0, fmt.Errorf("boosthd: bad evaluation set (%d rows, %d labels)", len(X), len(y))
	}
	pred, err := m.PredictBatch(X)
	if err != nil {
		return 0, err
	}
	correct := 0
	for i := range pred {
		if pred[i] == y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(y)), nil
}

// InputDim returns the raw feature width the encoders were built for.
func (m *Model) InputDim() int { return m.inputDim }

// Gamma returns the resolved base kernel bandwidth used at training time
// (checkpoint formats rebuild the encoder stack from it).
func (m *Model) Gamma() float64 { return m.gamma }

// EncoderStateBytes reports the resident memory of the encoder stack:
// the stored projection matrices, if any, and every sub-encoder's plane
// of phases, activation constants and, when seeded, projection sign
// bytes. A seeded checkpoint carries none of it.
func (m *Model) EncoderStateBytes() int { return m.Enc.StateBytes() }

// HealEncoders checks every seeded sub-encoder's plane against its
// regeneration from the stream roots, swaps a fresh plane in wherever a
// value differs, and returns the learners whose segment read a
// differing value; nil means every plane was intact. Sub-encoders and
// segments both run in segment order, so the learners come out in
// order. Views and clones share the encoder stack, so one call heals
// them all.
func (m *Model) HealEncoders() []int {
	var hit []int
	for _, enc := range m.Enc.encs {
		bad := enc.Heal()
		if bad == nil {
			continue
		}
		for i, p := range m.Enc.parts {
			if p.Enc != enc {
				continue
			}
			if k, _ := slices.BinarySearch(bad, p.Lo); k < len(bad) && bad[k] < p.Hi {
				hit = append(hit, i)
			}
		}
	}
	return hit
}

// InjectEncoderFaults flips bits of every seeded sub-encoder's plane
// (projection sign bytes, phases and activation constants) under the
// injector's per-bit probability, the encoder-side analogue of
// InjectClassFaults. It works copy on write, as
// infer.BinaryModel.InjectWordFaults does: each plane is copied, the
// copy corrupted and swapped in, so encodes in flight finish on the
// plane they loaded. The corruption is silent until HealEncoders runs,
// and it reaches every view and clone that shares the encoder stack.
// It returns the number of flipped bits.
//
//hdlint:ignore deadexport README's encoder fault drill documents it as the facade Model's fault hook
func (m *Model) InjectEncoderFaults(inj *faults.Injector) int {
	flips := 0
	for _, enc := range m.Enc.encs {
		flips += enc.InjectFaults(inj)
	}
	return flips
}

// Segments returns the dimension partition as (lo, hi) pairs.
func (m *Model) Segments() [][2]int {
	out := make([][2]int, len(m.segs))
	for i, s := range m.segs {
		out[i] = [2]int{s.lo, s.hi}
	}
	return out
}

// EmbeddedClassVectors returns every stored model hypervector embedded at
// its position in the full space: NL*K rows, where row (i, c) holds
// learner i's class-c vector in segment i and zeros elsewhere. This is
// the model-memory matrix whose span the paper's Figure 5 analyzes —
// BoostHD populates NL*K directions of the hyperspace where monolithic
// OnlineHD populates only K.
func (m *Model) EmbeddedClassVectors() []hdc.Vector {
	out := make([]hdc.Vector, 0, len(m.Learners)*m.Cfg.Classes)
	for i, l := range m.Learners {
		l.ReadClass(func(class []hdc.Vector, _ uint64) {
			for _, cv := range class {
				row := hdc.NewVector(m.Cfg.TotalDim)
				copy(row[m.segs[i].lo:m.segs[i].hi], cv)
				out = append(out, row)
			}
		})
	}
	return out
}

// EncodeSegmentBitsBatch encodes a block of rows into per-segment sign
// bits (dst[r][i] = row r, segment i) through the register-blocked batch
// kernel, every segment in one call — the binary engine's batch query
// path.
func (m *Model) EncodeSegmentBitsBatch(X [][]float64, dst [][]*hdc.BitVector) error {
	return m.Enc.parts.EncodeBitsBatch(X, dst)
}

// InjectClassFaults flips bits in every learner's class hypervectors under
// the injector's per-bit probability — the paper's Figure 8 reliability
// protocol — and invalidates the norm caches so subsequent scoring sees
// the corrupted memory. Each learner is mutated under its write lock, so
// the flips synchronize with concurrent serving (batch scorers and binary
// re-quantization see either the old or the new memory, never a torn
// one). It returns the total number of flipped bits.
func (m *Model) InjectClassFaults(inj *faults.Injector) int {
	flips := 0
	for _, l := range m.Learners {
		l.MutateClass(func(class []hdc.Vector) {
			for _, cv := range class {
				flips += inj.InjectFloat32(cv)
			}
		})
	}
	return flips
}

// InjectLearnerFaults flips bits in a single weak learner's class
// hypervectors under its write lock — the targeted variant of
// InjectClassFaults, used by reliability studies that corrupt specific
// learners and check the scrubber attributes the damage correctly. It
// returns the number of flipped bits.
func (m *Model) InjectLearnerFaults(learner int, inj *faults.Injector) int {
	if learner < 0 || learner >= len(m.Learners) {
		panic(fmt.Sprintf("boosthd: learner %d outside [0,%d)", learner, len(m.Learners)))
	}
	flips := 0
	m.Learners[learner].MutateClass(func(class []hdc.Vector) {
		for _, cv := range class {
			flips += inj.InjectFloat32(cv)
		}
	})
	return flips
}

// Clone deep-copies the ensemble (fault-injection trials mutate copies).
func (m *Model) Clone() *Model {
	out := &Model{Cfg: m.Cfg, Enc: m.Enc, segs: append([]segment(nil), m.segs...),
		gamma: m.gamma, inputDim: m.inputDim}
	out.Alphas = append([]float64(nil), m.Alphas...)
	out.Learners = make([]*onlinehd.HVClassifier, len(m.Learners))
	for i, l := range m.Learners {
		out.Learners[i] = l.Clone()
	}
	return out
}
