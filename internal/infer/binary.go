package infer

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"boosthd/internal/boosthd"
	"boosthd/internal/faults"
	"boosthd/internal/hdc"
	"boosthd/internal/obs"
	"boosthd/internal/par"
)

// popcount counts set bits (alias keeps the scoring loop terse).
//
//hd:hotpath
func popcount(x uint64) int { return bits.OnesCount64(x) }

// QuantizeDrop is the fraction of each class hypervector's
// lowest-magnitude components excluded from binary scoring. Sign bits
// carry no magnitude, so the smallest components — mostly accumulated
// noise — would vote with the same weight as the strongest ones;
// masking the weakest quarter recovers most of the accuracy the plain
// sign quantization loses (calibrated on the synthetic WESAD workload
// across seeds).
const QuantizeDrop = 0.25

// quantization is one immutable snapshot of the ternary class memory:
// the packed sign and mask planes, precomputed mask popcounts, and the
// learner versions the snapshot was taken at. Snapshots are never
// mutated after construction — refresh swaps in a whole new one — so
// readers that load a snapshot can score against it without locks.
type quantization struct {
	// planes is the snapshot's only copy of the class memory: one
	// contiguous class-major block per learner, class c's sign words at
	// [c*2W, c*2W+W) immediately followed by its mask words at
	// [c*2W+W, c*2W+2W), W = words per segment. The kernels walk a block
	// as one flat stream with sign and mask adjacent; the scrubber, the
	// write paths and the wire format take sub-slices of it (words).
	//
	//hd:guarded
	planes [][]uint64

	maskOnes [][]float64 // [learner][class] popcount of each mask, precomputed
	versions []uint64    // learner versions at quantization time
}

// words returns learner i's class-c sign and mask words: sub-slices of
// the learner's plane block, capped so neither can grow into the other.
func (qz *quantization) words(i, c int) (sign, mask []uint64) {
	p := qz.planes[i]
	w := len(p) / (2 * len(qz.maskOnes[i]))
	base := 2 * c * w
	return p[base : base+w : base+w], p[base+w : base+2*w : base+2*w]
}

// requantize returns a snapshot that shares qz's planes for every learner
// except those listed, which are re-thresholded from m's float memory
// under each learner's read lock.
func (qz *quantization) requantize(m *boosthd.Model, learners []int) *quantization {
	next := &quantization{
		planes:   append([][]uint64(nil), qz.planes...),
		maskOnes: append([][]float64(nil), qz.maskOnes...),
		versions: append([]uint64(nil), qz.versions...),
	}
	for _, i := range learners {
		m.Learners[i].ReadClass(func(class []hdc.Vector, version uint64) {
			next.versions[i] = version
			next.quantizeLearner(i, class)
		})
	}
	return next
}

// BinaryModel is the packed-binary deployment form of a BoostHD ensemble:
// every weak learner's class hypervectors quantized to a ternary packed
// form — a sign plane (component >= 0) plus a confidence mask that keeps
// the strongest 1-QuantizeDrop of components. A query is encoded directly
// to its per-segment sign bits — the sign of each component is read off
// the projection phase, skipping the trigonometric activation entirely —
// and scored against the class memories by masked Hamming similarity over
// 64-bit words (XOR, AND, popcount: the native word operations of
// wearable-class hardware).
//
// The quantized memory is an atomically swapped snapshot keyed to the
// learners' version counters: the predict paths re-threshold when the
// float model mutated (Fit, fault injection), and concurrent callers
// always score against a consistent snapshot.
//
// Alphas, segment widths and per-learner dimension masks are read from the
// model view the BinaryModel serves: a learner with a dimension mask
// (boosthd.Model.DimMask) scores with the mask ANDed into its confidence
// masks and renormalized by the surviving popcount, so it votes with full
// weight from its healthy dimensions — exactly as if the untrusted words
// had been dropped from the confidence mask at quantize time.
type BinaryModel struct {
	model  *boosthd.Model
	frozen bool // cold-loaded snapshot: no float memory to re-quantize from

	mu   sync.Mutex                   // serializes re-quantization
	snap atomic.Pointer[quantization] // current snapshot; never nil
}

// quantizeLearner thresholds one learner's class vectors straight into a
// fresh class-major plane block of the snapshot under construction. The
// sign plane keeps components >= 0. The mask is selected by rank, not by
// value comparison: exactly the top len-floor(QuantizeDrop*len)
// components by magnitude are kept, boundary ties broken toward the
// lowest index, so tied or constant vectors never over-drop past the
// intended fraction.
func (qz *quantization) quantizeLearner(i int, class []hdc.Vector) {
	qz.maskOnes[i] = make([]float64, len(class))
	if len(class) == 0 {
		qz.planes[i] = nil
		return
	}
	n := len(class[0])
	qz.planes[i] = make([]uint64, 2*len(class)*((n+63)/64))
	keep := n - int(QuantizeDrop*float64(n))
	scratch := make([]uint64, n)
	for c, cv := range class {
		sign, mask := qz.words(i, c)
		// Strictly-above-threshold components number fewer than keep;
		// components tied with the threshold fill the remaining quota.
		thr := maskThreshold(cv, keep, scratch)
		ones := 0
		for w := range sign {
			// Branch-free bit assembly: signs and the mask split are
			// data-dependent coin flips a branch would mispredict.
			var sw, mw uint64
			for j, x := range cv[w*64 : min(w*64+64, n)] {
				var s, m uint64
				if x >= 0 {
					s = 1
				}
				if math.Abs(x) > thr {
					m = 1
				}
				sw |= s << uint(j)
				mw |= m << uint(j)
			}
			sign[w], mask[w] = sw, mw
			ones += bits.OnesCount64(mw)
		}
		for j, x := range cv {
			if ones == keep {
				break
			}
			if math.Abs(x) == thr {
				mask[j>>6] |= uint64(1) << (uint(j) & 63)
				ones++
			}
		}
		qz.maskOnes[i][c] = float64(ones)
	}
}

// maskThreshold returns the magnitude a confidence mask keeping keep of
// v's components is cut at: |v| sorted ascending in sort.Float64s order
// (NaN before every number), the element at len(v)-keep. It selects that
// one order statistic in linear time instead of sorting: the magnitude
// bits of non-NaN floats order exactly as the floats do, so a radix
// select over them finds it. scratch must hold len(v) words and is
// overwritten.
func maskThreshold(v []float64, keep int, scratch []uint64) float64 {
	const inf = 0x7ff0000000000000 // +Inf; every larger magnitude is NaN
	a := scratch[:0]
	for _, x := range v {
		if b := math.Float64bits(x) &^ (1 << 63); b <= inf {
			a = append(a, b)
		}
	}
	// NaNs take the first len(v)-len(a) sorted slots.
	rank := len(a) - keep
	if rank < 0 {
		// The cut falls among the NaNs. No magnitude compares above or
		// equal to NaN, so the mask comes out empty, as it does when the
		// sorted slice is indexed.
		return math.NaN()
	}
	return math.Float64frombits(selectBits(a, rank))
}

// selectBits returns the k-th smallest (0-based) of a, permuting a: an
// MSD radix select. Each round histograms the eight bits just below the
// candidates' common prefix and keeps the bucket holding rank k, so the
// prefix grows by at least eight bits a round and no input costs more
// than eight passes.
func selectBits(a []uint64, k int) uint64 {
	var hist [256]int
	or, and := uint64(0), ^uint64(0)
	for _, x := range a {
		or |= x
		and &= x
	}
	for or != and {
		shift := uint(max(0, 63-bits.LeadingZeros64(or^and)-7))
		hist = [256]int{}
		for _, x := range a {
			hist[x>>shift&0xff]++
		}
		d := 0
		for k >= hist[d] {
			k -= hist[d]
			d++
		}
		or, and = 0, ^uint64(0)
		m := 0
		for _, x := range a {
			if x>>shift&0xff == uint64(d) {
				a[m] = x
				m++
				or |= x
				and &= x
			}
		}
		a = a[:m]
	}
	return a[0]
}

// snapshot thresholds the model's current class memory. Each learner is
// quantized under its read lock via ReadClass, so the snapshot records a
// consistent (version, vectors) pair per learner even while Fit or fault
// injection mutates the float model on other goroutines. When a previous
// snapshot is supplied, learners whose version did not change reuse its
// planes instead of re-thresholding — snapshots are immutable, so the
// sharing is safe, and a streaming update that moved one learner costs
// one learner's quantization, not the whole ensemble's.
func snapshot(m *boosthd.Model, prev *quantization) *quantization {
	qz := &quantization{
		planes:   make([][]uint64, len(m.Learners)),
		maskOnes: make([][]float64, len(m.Learners)),
		versions: make([]uint64, len(m.Learners)),
	}
	for i, l := range m.Learners {
		l.ReadClass(func(class []hdc.Vector, version uint64) {
			qz.versions[i] = version
			if prev != nil && prev.versions[i] == version {
				qz.planes[i] = prev.planes[i]
				qz.maskOnes[i] = prev.maskOnes[i]
				return
			}
			qz.quantizeLearner(i, class)
		})
	}
	return qz
}

// Quantize converts a trained ensemble's class hypervectors into the
// packed ternary model: sign plane plus confidence mask per class.
func Quantize(m *boosthd.Model) (*BinaryModel, error) {
	if len(m.Learners) == 0 {
		return nil, fmt.Errorf("infer: quantize: model has no learners")
	}
	bm := &BinaryModel{model: m}
	bm.snap.Store(snapshot(m, nil))
	return bm, nil
}

// Frozen reports whether the model is a cold-loaded snapshot (LoadBinary)
// with no float class memory behind it. Frozen models serve their stored
// quantization forever: Stale is always false and nothing re-quantizes.
func (bm *BinaryModel) Frozen() bool { return bm.frozen }

// Stale reports whether any learner's class vectors changed (Fit, fault
// injection) since the current snapshot was taken.
func (bm *BinaryModel) Stale() bool {
	if bm.frozen {
		return false
	}
	qz := bm.snap.Load()
	for i, l := range bm.model.Learners {
		if l.Version() != qz.versions[i] {
			return true
		}
	}
	return false
}

// Rethreshold rebuilds quantized planes from the float class memory
// unconditionally, bypassing the version-keyed plane reuse that
// syncQuantization performs. This is the reliability repair path for
// silent corruption of the quantized planes: word faults flip stored
// bits without touching learner versions (hardware does not announce its
// faults), so a version-gated refresh would happily reuse the corrupted
// planes. Mask popcounts are recomputed, healing stale stored counts too.
//
// With no arguments the whole snapshot is rebuilt. With learner indexes,
// only those learners are re-quantized — the surgical repair unit: a
// scrubber that attributed corruption to specific learners rebuilds
// exactly their planes, and every other learner's (possibly still
// masked-but-unrepaired) planes carry over untouched. It fails on a
// frozen snapshot — there is no float memory to re-threshold from;
// restore those from a verified checkpoint instead.
func (bm *BinaryModel) Rethreshold(learners ...int) error {
	if bm.frozen {
		return fmt.Errorf("infer: rethreshold: frozen binary snapshot has no float class memory")
	}
	for _, i := range learners {
		if i < 0 || i >= len(bm.model.Learners) {
			return fmt.Errorf("infer: rethreshold: learner %d outside [0,%d)", i, len(bm.model.Learners))
		}
	}
	bm.mu.Lock()
	defer bm.mu.Unlock()
	if len(learners) == 0 {
		bm.snap.Store(snapshot(bm.model, nil))
		return nil
	}
	bm.snap.Store(bm.snap.Load().requantize(bm.model, learners))
	return nil
}

// syncQuantization re-thresholds if the float model mutated since the
// snapshot, so the binary backend never silently serves stale memories.
// In-flight readers keep scoring their loaded snapshot; new calls see
// the fresh one.
func (bm *BinaryModel) syncQuantization() {
	if !bm.Stale() {
		return
	}
	bm.mu.Lock()
	defer bm.mu.Unlock()
	if bm.Stale() { // double-check under the lock
		bm.snap.Store(snapshot(bm.model, bm.snap.Load()))
	}
}

// Bits returns the total size of the quantized class memory in bits —
// sign plane plus confidence mask, two bits per stored component. This
// is the number the wearable deployment scenario is sized by: a D=10000,
// NL=10, 3-class ensemble stores ~7.3 KB where the float model stores
// almost 2 MB as float64 or 469 KB as float32.
func (bm *BinaryModel) Bits() int {
	qz := bm.snap.Load()
	total := 0
	for i, l := range bm.model.Learners {
		total += 2 * len(qz.maskOnes[i]) * l.Dim
	}
	return total
}

// NewQueryBits allocates the per-segment query buffers PredictBits
// scores; reuse them across rows for allocation-free inference.
func (bm *BinaryModel) NewQueryBits() []*hdc.BitVector {
	return bm.newQueryBlock(1)[0]
}

// newQueryBlock allocates per-segment query buffers for n rows out of
// four allocations, whatever n and the segment count.
func (bm *BinaryModel) newQueryBlock(n int) [][]*hdc.BitVector {
	segs, words := len(bm.model.Learners), 0
	for _, l := range bm.model.Learners {
		words += (l.Dim + 63) / 64
	}
	slab := make([]uint64, n*words)
	vecs := make([]hdc.BitVector, n*segs)
	ptrs := make([]*hdc.BitVector, n*segs)
	out := make([][]*hdc.BitVector, n)
	for r := range out {
		for i, l := range bm.model.Learners {
			w := (l.Dim + 63) / 64
			vecs[r*segs+i] = hdc.BitVector{N: l.Dim, Words: slab[:w:w]}
			ptrs[r*segs+i] = &vecs[r*segs+i]
			slab = slab[w:]
		}
		out[r] = ptrs[r*segs : (r+1)*segs : (r+1)*segs]
	}
	return out
}

// maskedPlaneScore is the dimension-quarantined masked Hamming
// similarity: untrusted words (healthy bit 0) drop out of the
// confidence mask, and the score renormalizes by the surviving
// popcount so the healthy dimensions keep their full voting weight —
// bit-for-bit what a clean model quantized with those words masked out
// would score. An all-masked class scores 0, the zero-norm convention.
//
//hd:hotpath
func maskedPlaneScore(q, sign, mask, healthy []uint64) float64 {
	dis, ones := 0, 0
	for w, qw := range q {
		mw := mask[w] & healthy[w]
		ones += popcount(mw)
		dis += popcount((qw ^ sign[w]) & mw)
	}
	if ones == 0 {
		return 0
	}
	return 1 - 2*float64(dis)/float64(ones)
}

// planeDistance is the single-row scoring core: popcount((q^sign)&mask)
// over one class's words, 4-way unrolled with independent accumulators so
// the popcount chains don't serialize on one register dependency.
//
//hd:hotpath
func planeDistance(q, sign, mask []uint64) int {
	var d0, d1, d2, d3 int
	w := 0
	for ; w+4 <= len(q); w += 4 {
		d0 += popcount((q[w] ^ sign[w]) & mask[w])
		d1 += popcount((q[w+1] ^ sign[w+1]) & mask[w+1])
		d2 += popcount((q[w+2] ^ sign[w+2]) & mask[w+2])
		d3 += popcount((q[w+3] ^ sign[w+3]) & mask[w+3])
	}
	for ; w < len(q); w++ {
		d0 += popcount((q[w] ^ sign[w]) & mask[w])
	}
	return d0 + d1 + d2 + d3
}

// planeDistance4 scores four query rows against one class plane in a
// single sweep: each sign/mask word is loaded once and fed to four
// independent XOR/AND/popcount chains. At batch scale this is what turns
// scoring from plane-bandwidth-bound into query-bound — the class memory
// is read len(batch)/4 times instead of len(batch) times.
//
//hd:hotpath
func planeDistance4(q0, q1, q2, q3, sign, mask []uint64) (d0, d1, d2, d3 int) {
	sign = sign[:len(q0)]
	mask = mask[:len(q0)]
	q1, q2, q3 = q1[:len(q0)], q2[:len(q0)], q3[:len(q0)]
	for w, s := range sign {
		m := mask[w]
		d0 += popcount((q0[w] ^ s) & m)
		d1 += popcount((q1[w] ^ s) & m)
		d2 += popcount((q2[w] ^ s) & m)
		d3 += popcount((q3[w] ^ s) & m)
	}
	return
}

// scoreLearner writes learner i's per-class similarities for one query
// row, walking the packed class-major plane block. The dimension-
// quarantined path (healthy != nil) keeps the reference word loop —
// correctness of the renormalization over raw speed. Serving and the
// canary probe (EvaluateLearners) both score through it, so a learner is
// always evaluated the way it serves.
//
//hd:hotpath
func scoreLearner(qz *quantization, i int, q []uint64, healthy []uint64, scores []float64) {
	planes := qz.planes[i]
	w := len(q)
	for c, ones := range qz.maskOnes[i] {
		base := c * 2 * w
		sign := planes[base : base+w : base+w]
		mask := planes[base+w : base+2*w : base+2*w]
		if healthy != nil {
			scores[c] = maskedPlaneScore(q, sign, mask, healthy)
			continue
		}
		scores[c] = 1 - 2*float64(planeDistance(q, sign, mask))/ones
	}
}

// aggregateLearner folds one learner's class scores into a row's
// aggregate under the model's aggregation rule. Kept out of line so the
// single-row and 4-row kernels share the exact accumulation order —
// that order is part of the bit-identity contract.
//
//hd:hotpath
func aggregateLearner(score bool, alpha float64, scores, agg []float64) {
	if score {
		for c := range agg {
			agg[c] += alpha * scores[c]
		}
		return
	}
	vote := 0
	for c := 1; c < len(scores); c++ {
		if scores[c] > scores[vote] {
			vote = c
		}
	}
	agg[vote] += alpha
}

// argmax returns the lowest index of the maximum aggregate.
//
//hd:hotpath
func argmax(agg []float64) int {
	best := 0
	for c := 1; c < len(agg); c++ {
		if agg[c] > agg[best] {
			best = c
		}
	}
	return best
}

// predictBits scores a query against one snapshot.
//
//hd:hotpath
func (bm *BinaryModel) predictBits(qz *quantization, q []*hdc.BitVector, agg, scores []float64) int {
	classes := bm.model.Cfg.Classes
	for c := 0; c < classes; c++ {
		agg[c] = 0
	}
	score := bm.model.Cfg.Aggregation == boosthd.Score
	for i := range qz.planes {
		if bm.model.Alphas[i] == 0 {
			// Skip quarantined / zero-weight learners outright: their
			// planes may be corrupted (that is why reliability masked
			// them), and a 0/0 from a zeroed mask popcount would NaN the
			// aggregate a plain 0-weighted add was supposed to ignore.
			continue
		}
		scoreLearner(qz, i, q[i].Words, bm.model.DimMask(i), scores[:classes])
		aggregateLearner(score, bm.model.Alphas[i], scores[:classes], agg[:classes])
	}
	return argmax(agg[:classes])
}

// predictBits4 classifies four pre-encoded rows against one snapshot in a
// single learner-major sweep: each learner's packed planes are walked
// once per class and fed to the 4-row popcount kernel, so the class
// memory is streamed once per four rows. Learners are visited in index
// order and each row's aggregate accumulates exactly as in predictBits,
// so predictions (and scores) are bit-identical to four single-row calls.
// agg and scores are [4][classes] scratch; out[0:4] receives the labels.
//
//hd:hotpath
func (bm *BinaryModel) predictBits4(qz *quantization, q0, q1, q2, q3 []*hdc.BitVector, agg, scores [][]float64, out []int) {
	classes := bm.model.Cfg.Classes
	for r := 0; r < 4; r++ {
		for c := 0; c < classes; c++ {
			agg[r][c] = 0
		}
	}
	score := bm.model.Cfg.Aggregation == boosthd.Score
	for i := range qz.planes {
		alpha := bm.model.Alphas[i]
		if alpha == 0 {
			continue
		}
		w0, w1, w2, w3 := q0[i].Words, q1[i].Words, q2[i].Words, q3[i].Words
		if healthy := bm.model.DimMask(i); healthy != nil {
			scoreLearner(qz, i, w0, healthy, scores[0][:classes])
			scoreLearner(qz, i, w1, healthy, scores[1][:classes])
			scoreLearner(qz, i, w2, healthy, scores[2][:classes])
			scoreLearner(qz, i, w3, healthy, scores[3][:classes])
		} else {
			planes := qz.planes[i]
			words := len(w0)
			for c, ones := range qz.maskOnes[i] {
				base := c * 2 * words
				sign := planes[base : base+words : base+words]
				mask := planes[base+words : base+2*words : base+2*words]
				d0, d1, d2, d3 := planeDistance4(w0, w1, w2, w3, sign, mask)
				scores[0][c] = 1 - 2*float64(d0)/ones
				scores[1][c] = 1 - 2*float64(d1)/ones
				scores[2][c] = 1 - 2*float64(d2)/ones
				scores[3][c] = 1 - 2*float64(d3)/ones
			}
		}
		for r := 0; r < 4; r++ {
			aggregateLearner(score, alpha, scores[r][:classes], agg[r][:classes])
		}
	}
	for r := 0; r < 4; r++ {
		out[r] = argmax(agg[r][:classes])
	}
}

// PredictBits classifies a pre-encoded binary query: every learner scores
// its segment by masked Hamming similarity against its ternary class
// patterns — sim = 1 - 2*popcount((q XOR sign) AND mask)/popcount(mask) —
// and the alpha-weighted aggregate follows the model's aggregation rule.
// The agg and scores slices (length classes) are caller-owned scratch.
func (bm *BinaryModel) PredictBits(q []*hdc.BitVector, agg, scores []float64) int {
	return bm.predictBits(bm.snap.Load(), q, agg, scores)
}

// predictBatchRows is the row-block size of the binary pipeline; blocks
// feed the register-blocked sign-bit kernel (which runs sequentially on
// the calling goroutine, so any block size is safe) and bound the
// per-worker query-buffer scratch.
const predictBatchRows = 32

// PredictBatchStaged is PredictBatch with per-phase accounting: when
// stages is non-nil, every worker adds its blocks' encode and score
// wall time to it (atomically — blocks run in parallel). The clock
// reads sit at block granularity around the sign-bit encode call and
// the popcount scoring loop; the //hd:hotpath kernels are untouched,
// and a nil stages skips the clock entirely.
func (bm *BinaryModel) PredictBatchStaged(X [][]float64, stages *obs.StageTimes) ([]int, error) {
	out := make([]int, len(X))
	if len(X) == 0 {
		return out, nil
	}
	bm.syncQuantization()
	qz := bm.snap.Load()
	classes := bm.model.Cfg.Classes
	blocks := (len(X) + predictBatchRows - 1) / predictBatchRows
	workers := par.Workers(blocks)
	type scratch struct {
		q           [][]*hdc.BitVector // [row in block][segment]
		agg, scores [4][]float64       // [4][classes] blocked-kernel scratch
	}
	scratches := make([]*scratch, workers)
	err := par.ForEachWorker(blocks, func(w, blk int) error {
		sc := scratches[w]
		if sc == nil {
			// Sized to the rows a block encodes: a lone /predict pays for
			// one row of query bits, not a full block.
			sc = &scratch{q: bm.newQueryBlock(min(predictBatchRows, len(X)))}
			slab := make([]float64, 8*classes)
			for r := 0; r < 4; r++ {
				sc.agg[r], sc.scores[r] = slab[2*r*classes:(2*r+1)*classes], slab[(2*r+1)*classes:(2*r+2)*classes]
			}
			scratches[w] = sc
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
		if err := bm.model.EncodeSegmentBitsBatch(X[lo:hi], sc.q[:hi-lo]); err != nil {
			return fmt.Errorf("infer: rows [%d,%d): %w", lo, hi, err)
		}
		var t1 time.Time
		if stages != nil {
			t1 = time.Now()
			stages.EncodeNS.Add(t1.Sub(t0).Nanoseconds())
		}
		i := lo
		for ; i+4 <= hi; i += 4 {
			bm.predictBits4(qz, sc.q[i-lo], sc.q[i-lo+1], sc.q[i-lo+2], sc.q[i-lo+3],
				sc.agg[:], sc.scores[:], out[i:i+4])
		}
		for ; i < hi; i++ {
			out[i] = bm.predictBits(qz, sc.q[i-lo], sc.agg[0], sc.scores[0])
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

// InjectWordFaults flips bits of the quantized class memory — sign
// planes and confidence masks — under the injector's per-bit
// probability: the packed-binary analogue of Model.InjectClassFaults,
// emulating memory faults in the deployed word-parallel representation.
// Each (learner, class) pair's sign and mask words are handed to the
// injector as one bit array, learner-major. Flips that land on padding
// bits past the learner's segment width are discarded: those bits are
// cleared again and not counted, since they are not model memory (the
// scoring kernels would count them as dimensions, and a snapshot saved
// with them set would fail LoadBinary). Every dimension bit still flips
// independently with the injector's probability. Snapshots are
// immutable (readers score them lock-free), so the faults are applied
// to a deep copy that is atomically swapped in: in-flight batches finish
// on the memory they loaded, every later call scores the corrupted
// planes. The corruption is silent, exactly like hardware: learner
// versions and the stored mask popcounts are NOT updated, so nothing
// downstream re-thresholds it away — detection is the reliability
// scrubber's job. It returns the number of flipped dimension bits.
func (bm *BinaryModel) InjectWordFaults(inj *faults.Injector) int {
	flips := 0
	bm.ApplyWordRepair(false, func(learner, _ int, sign, mask []uint64) {
		last := len(sign) - 1
		pad := ^uint64(0) << uint(bm.model.Learners[learner].Dim%64)
		if pad == ^uint64(0) {
			pad = 0 // the segment fills its last word
		}
		was := [2]uint64{sign[last], mask[last]}
		flips += inj.InjectWords(sign, mask)
		for k, p := range [2][]uint64{sign, mask} {
			flips -= popcount((p[last] ^ was[k]) & pad)
			p[last] ^= (p[last] ^ was[k]) & pad
		}
	})
	return flips
}

// ReadPlanes runs fn over every (learner, class) pair of the current
// quantized snapshot: the packed sign and mask words plus the learner
// version the snapshot was thresholded at. The snapshot is immutable, so
// fn may compute over the words freely but must not mutate or retain
// them. This is the reliability scrubber's read path for its XOR-fold
// parity signatures.
func (bm *BinaryModel) ReadPlanes(fn func(learner, class int, version uint64, sign, mask []uint64)) {
	qz := bm.snap.Load()
	for i := range qz.planes {
		for c := range qz.maskOnes[i] {
			sign, mask := qz.words(i, c)
			fn(i, c, qz.versions[i], sign, mask)
		}
	}
}

// overlay returns a BinaryModel serving view — a boosthd view of this
// model (masked, reweighted or tenant) with the same learner geometry —
// over this model's current snapshot. Only the learners listed in
// requantize are re-thresholded, from the view's own float memory; every
// other learner shares the parent's planes, so a quarantine never
// re-trusts float memory it has no reason to trust, and a fleet of
// tenant views pays quantization only for its overrides. Quantization is
// per-learner and deterministic, so the overlay is bit-for-bit the
// snapshot a full re-quantization of the materialized view would build.
// Over a frozen parent the listed learners still quantize, from the
// view's memory; the rest keep the frozen planes.
func (bm *BinaryModel) overlay(view *boosthd.Model, requantize []int) *BinaryModel {
	out := &BinaryModel{model: view, frozen: bm.frozen}
	qz := bm.snap.Load()
	if len(requantize) > 0 {
		qz = qz.requantize(view, requantize)
	}
	out.snap.Store(qz)
	return out
}

// ApplyWordRepair runs fn over a deep copy of every (learner, class)
// pair's sign and mask words and atomically swaps the transformed planes
// in — the write-side complement of ReadPlanes, for storage-level
// simulations (ECC correction models) and test construction. recount
// true recomputes the stored mask popcounts from the transformed masks
// (a transform that legitimately changes the confidence masks, e.g.
// masking words out at "quantize time"); false keeps the stored counts
// untouched, matching InjectWordFaults' silent-corruption semantics.
func (bm *BinaryModel) ApplyWordRepair(recount bool, fn func(learner, class int, sign, mask []uint64)) {
	bm.mu.Lock()
	defer bm.mu.Unlock()
	qz := bm.snap.Load()
	next := &quantization{
		planes:   make([][]uint64, len(qz.planes)),
		maskOnes: qz.maskOnes,
		versions: qz.versions,
	}
	if recount {
		next.maskOnes = make([][]float64, len(qz.maskOnes))
	}
	for i := range qz.planes {
		next.planes[i] = append([]uint64(nil), qz.planes[i]...)
		if recount {
			next.maskOnes[i] = make([]float64, len(qz.maskOnes[i]))
		}
		for c := range qz.maskOnes[i] {
			sign, mask := next.words(i, c)
			fn(i, c, sign, mask)
			if recount {
				ones := 0
				for _, w := range mask {
					ones += popcount(w)
				}
				next.maskOnes[i][c] = float64(ones)
			}
		}
	}
	bm.snap.Store(next)
}

// EvaluateLearners scores each weak learner standalone on a labeled set
// through the current quantized snapshot: per-segment sign-bit encoding,
// then each learner's planes through the serving kernel (scoreLearner,
// under the view's dimension masks), no alpha weighting. The reliability
// canary uses it to catch a learner whose quantized memory still passes
// parity but whose accuracy collapsed — and, for frozen snapshots, it is
// the only learner-level probe at all (there is no float memory to
// score).
func (bm *BinaryModel) EvaluateLearners(X [][]float64, y []int) ([]float64, error) {
	if len(X) == 0 || len(X) != len(y) {
		return nil, fmt.Errorf("infer: bad learner evaluation set (%d rows, %d labels)", len(X), len(y))
	}
	qz := bm.snap.Load()
	right := make([]int, len(qz.planes))
	scores := make([]float64, bm.model.Cfg.Classes)
	q := bm.newQueryBlock(min(predictBatchRows, len(X)))
	for lo := 0; lo < len(X); lo += predictBatchRows {
		hi := lo + predictBatchRows
		if hi > len(X) {
			hi = len(X)
		}
		if err := bm.model.EncodeSegmentBitsBatch(X[lo:hi], q[:hi-lo]); err != nil {
			return nil, fmt.Errorf("infer: rows [%d,%d): %w", lo, hi, err)
		}
		for r := lo; r < hi; r++ {
			for i := range qz.planes {
				scoreLearner(qz, i, q[r-lo][i].Words, bm.model.DimMask(i), scores)
				if argmax(scores) == y[r] {
					right[i]++
				}
			}
		}
	}
	acc := make([]float64, len(right))
	for i, n := range right {
		acc[i] = float64(n) / float64(len(y))
	}
	return acc, nil
}
