package experiments

import (
	"fmt"
	"time"

	"boosthd/internal/boosthd"
	"boosthd/internal/encoding"
	"boosthd/internal/hdc"
	"boosthd/internal/infer"
)

// RunInferBench produces the inference-backend ablation of the serving
// engine: float (cosine over full-precision class hypervectors) versus
// packed-binary (Hamming over thresholded bit vectors) on the synthetic
// WESAD workload. For each backend it reports test accuracy, end-to-end
// batch latency from raw features, the latency of the scoring stage alone
// on pre-encoded queries — the stage the binary representation
// word-parallelizes — and the class-memory footprint, the number the
// wearable deployment scenario is sized by.
func RunInferBench(opt Options) (*Table, error) {
	q := opt.quality()
	runs := opt.Runs
	if runs < 1 {
		runs = 1
	}

	// Accuracy is averaged over subject splits like the paper's other
	// tables — a single ~200-row split carries +-1.5 points of noise,
	// larger than the quantization effect being measured.
	var fAccSum, bAccSum float64
	var sp *split
	var m *boosthd.Model
	var fe, be *infer.Engine
	for r := 0; r < runs; r++ {
		cfg0 := opt.wesadConfig()
		cfg0.Separability = 0.55
		if opt.Quick {
			cfg0.NumSubjects = 12
			cfg0.SamplesPerState = 1536
		}
		var err error
		sp, err = prepare(opt.applyOverrides(cfg0), opt.Seed+int64(r)*31)
		if err != nil {
			return nil, err
		}
		cfg := boosthd.DefaultConfig(q.HDDim, q.NL, sp.numClasses)
		cfg.Epochs = q.HDEpochs
		cfg.Seed = opt.Seed + int64(r)*17
		m, err = boosthd.Train(sp.train.X, sp.train.Y, cfg)
		if err != nil {
			return nil, err
		}
		fe = infer.NewEngine(m)
		fAcc, err := fe.Evaluate(sp.test.X, sp.test.Y)
		if err != nil {
			return nil, err
		}
		be, err = infer.NewBinaryEngine(m)
		if err != nil {
			return nil, err
		}
		bAcc, err := be.Evaluate(sp.test.X, sp.test.Y)
		if err != nil {
			return nil, err
		}
		fAccSum += fAcc
		bAccSum += bAcc
	}
	fAcc := fAccSum / float64(runs)
	bAcc := bAccSum / float64(runs)

	iters := 5
	if opt.Quick {
		iters = 3
	}
	n := len(sp.test.X)

	// Latency, measured on the last trained model.
	start := time.Now()
	for i := 0; i < iters; i++ {
		if _, err := fe.PredictBatch(sp.test.X); err != nil {
			return nil, err
		}
	}
	fBatch := time.Since(start) / time.Duration(iters)
	start = time.Now()
	for i := 0; i < iters; i++ {
		if _, err := be.PredictBatch(sp.test.X); err != nil {
			return nil, err
		}
	}
	bBatch := time.Since(start) / time.Duration(iters)
	bin := be.Binary()

	// Scoring stage alone, on pre-encoded queries.
	hs, err := m.Enc.EncodeBatch(sp.test.X)
	if err != nil {
		return nil, err
	}
	qbits := make([][]*hdc.BitVector, n)
	for i := range qbits {
		qbits[i] = bin.NewQueryBits()
	}
	if err := m.EncodeSegmentBitsBatch(sp.test.X, qbits); err != nil {
		return nil, err
	}
	// Both sides score allocation-free with hoisted per-loop state: the
	// float path through EncodedPredictor (pinned norms + reused scratch,
	// what PredictBatch does per worker) against the binary path's reused
	// query buffers — so the ratio isolates the scoring arithmetic rather
	// than per-call allocation overhead.
	scoreIters := iters * 20
	predictEncoded, release := m.EncodedPredictor()
	start = time.Now()
	sink := 0
	for it := 0; it < scoreIters; it++ {
		for i := range hs {
			sink += predictEncoded(hs[i])
		}
	}
	fScore := time.Since(start) / time.Duration(scoreIters)
	release()
	agg := make([]float64, sp.numClasses)
	scores := make([]float64, sp.numClasses)
	start = time.Now()
	for it := 0; it < scoreIters; it++ {
		for i := range qbits {
			sink += bin.PredictBits(qbits[i], agg, scores)
		}
	}
	bScore := time.Since(start) / time.Duration(scoreIters)
	_ = sink

	perSample := func(d time.Duration) string {
		return fmt.Sprintf("%.1f", d.Seconds()/float64(n)*1e6)
	}
	floatBits := 0
	for _, l := range m.Learners {
		floatBits += l.Classes * l.Dim * 64
	}
	t := &Table{
		Title: fmt.Sprintf("Inference backends: BoostHD Dtotal=%d NL=%d on %s (%d test rows)",
			q.HDDim, q.NL, sp.name, n),
		Header: []string{"backend", "acc %", "batch ms", "us/sample", "score-only us/sample", "class memory"},
	}
	t.AddRow("float64 cosine", fmt.Sprintf("%.2f", fAcc*100),
		fmt.Sprintf("%.2f", fBatch.Seconds()*1e3), perSample(fBatch),
		perSample(fScore), fmt.Sprintf("%d KB", floatBits/8/1024))
	t.AddRow("packed-binary Hamming", fmt.Sprintf("%.2f", bAcc*100),
		fmt.Sprintf("%.2f", bBatch.Seconds()*1e3), perSample(bBatch),
		perSample(bScore), fmt.Sprintf("%d KB", bin.Bits()/8/1024))
	t.AddNote("binary vs float: %.1fx end-to-end, %.1fx on the scoring stage, %.0fx smaller class memory, accuracy gap %+.2f points",
		fBatch.Seconds()/bBatch.Seconds(), fScore.Seconds()/bScore.Seconds(),
		float64(floatBits)/float64(bin.Bits()), (bAcc-fAcc)*100)
	return t, nil
}

// kbytes renders a byte count with a unit that keeps the table narrow.
func kbytes(b int) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1f MB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1f KB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%d B", b)
	}
}

// throughput times fn over iters repetitions of n rows and reports
// krows/s.
func throughput(n, iters int, fn func() error) (float64, error) {
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := fn(); err != nil {
			return 0, err
		}
	}
	el := time.Since(start).Seconds()
	return float64(n*iters) / el / 1e3, nil
}

// RunInferSweep sweeps the serving stack across HDC dimension, encoder
// projection mode (stored Gaussian matrix, or the seeded projection
// evaluated in-kernel by sign-pattern table lookups), serving backend,
// and batch size. The first table characterizes the encoder modes: resident
// encoder state, checkpoint sizes, and raw encode throughput — the
// rematerialized mode must hold its own against the stored matrix while
// carrying orders of magnitude less state. The second table reports
// end-to-end predict throughput per (dimension, projection, backend) at
// each batch size plus score-only throughput on pre-encoded queries,
// isolating the blocked popcount kernels from the encode stage.
func RunInferSweep(opt Options) (*Table, *Table, error) {
	q := opt.quality()
	dims := []int{2000, 10000}
	epochs := 2
	iters := 3
	if !opt.Quick {
		dims = []int{10000, 20000}
		epochs = 5
		iters = 5
	}
	if opt.HDDimOverride > 0 {
		dims = []int{opt.HDDimOverride}
	}
	batches := []int{8, 64, 256}
	projs := []encoding.Projection{encoding.ProjStored, encoding.ProjSeeded}

	cfg0 := opt.wesadConfig()
	cfg0.Separability = 0.55
	if opt.Quick {
		cfg0.NumSubjects = 12
		cfg0.SamplesPerState = 1536
	}
	sp, err := prepare(cfg0, opt.Seed)
	if err != nil {
		return nil, nil, err
	}
	n := len(sp.test.X)

	encT := &Table{
		Title:  fmt.Sprintf("Encoder modes on %s (%d test rows, features=%d)", sp.name, n, len(sp.test.X[0])),
		Header: []string{"Dtotal", "projection", "encoder state", "float ckpt", "binary ckpt", "encode krows/s", "bit-encode krows/s"},
	}
	predT := &Table{
		Title:  "Predict throughput, krows/s (encoder projection x backend x batch)",
		Header: []string{"Dtotal", "projection", "backend", "batch 8", "batch 64", "batch 256", "score-only"},
	}

	// Per-dimension bookkeeping for the acceptance notes: seeded encode
	// throughput relative to stored, and the encoder-state shrink factor.
	type modeStats struct {
		encodeKRows float64
		stateBytes  int
	}
	perDim := map[int]map[encoding.Projection]*modeStats{}

	for _, d := range dims {
		perDim[d] = map[encoding.Projection]*modeStats{}
		for _, pj := range projs {
			cfg := boosthd.DefaultConfig(d, q.NL, sp.numClasses)
			cfg.Epochs = epochs
			cfg.Seed = opt.Seed
			cfg.Projection = pj
			m, err := boosthd.Train(sp.train.X, sp.train.Y, cfg)
			if err != nil {
				return nil, nil, err
			}
			fe := infer.NewEngine(m)
			be, err := infer.NewBinaryEngine(m)
			if err != nil {
				return nil, nil, err
			}
			bin := be.Binary()

			fBlob, err := m.MarshalBinary()
			if err != nil {
				return nil, nil, err
			}
			bBlob, err := bin.MarshalBinary()
			if err != nil {
				return nil, nil, err
			}

			encKR, err := throughput(n, iters, func() error {
				_, err := m.Enc.EncodeBatch(sp.test.X)
				return err
			})
			if err != nil {
				return nil, nil, err
			}
			qbits := make([][]*hdc.BitVector, n)
			for i := range qbits {
				qbits[i] = bin.NewQueryBits()
			}
			bitKR, err := throughput(n, iters, func() error {
				return m.EncodeSegmentBitsBatch(sp.test.X, qbits)
			})
			if err != nil {
				return nil, nil, err
			}
			encT.AddRow(fmt.Sprintf("%d", d), pj.String(),
				kbytes(m.EncoderStateBytes()), kbytes(len(fBlob)), kbytes(len(bBlob)),
				fmt.Sprintf("%.1f", encKR), fmt.Sprintf("%.1f", bitKR))
			perDim[d][pj] = &modeStats{encodeKRows: encKR, stateBytes: m.EncoderStateBytes()}

			for _, backend := range []struct {
				name    string
				predict func([][]float64) ([]int, error)
			}{
				{"float", fe.PredictBatch},
				{"binary", be.PredictBatch},
			} {
				cells := []string{fmt.Sprintf("%d", d), pj.String(), backend.name}
				for _, bs := range batches {
					kr, err := throughput(n, iters, func() error {
						for lo := 0; lo < n; lo += bs {
							hi := lo + bs
							if hi > n {
								hi = n
							}
							if _, err := backend.predict(sp.test.X[lo:hi]); err != nil {
								return err
							}
						}
						return nil
					})
					if err != nil {
						return nil, nil, err
					}
					cells = append(cells, fmt.Sprintf("%.1f", kr))
				}
				// Score-only: the stage the blocked popcount (binary) and
				// pinned-norm cosine (float) kernels own, on pre-encoded
				// queries.
				var scoreKR float64
				if backend.name == "float" {
					hs, err := m.Enc.EncodeBatch(sp.test.X)
					if err != nil {
						return nil, nil, err
					}
					predictEncoded, release := m.EncodedPredictor()
					scoreKR, err = throughput(n, iters*10, func() error {
						for i := range hs {
							predictEncoded(hs[i])
						}
						return nil
					})
					release()
					if err != nil {
						return nil, nil, err
					}
				} else {
					agg := make([]float64, sp.numClasses)
					scores := make([]float64, sp.numClasses)
					scoreKR, err = throughput(n, iters*10, func() error {
						for i := range qbits {
							bin.PredictBits(qbits[i], agg, scores)
						}
						return nil
					})
					if err != nil {
						return nil, nil, err
					}
				}
				cells = append(cells, fmt.Sprintf("%.1f", scoreKR))
				predT.AddRow(cells...)
			}
		}
	}

	maxD := dims[len(dims)-1]
	if st, sd := perDim[maxD][encoding.ProjStored], perDim[maxD][encoding.ProjSeeded]; st != nil && sd != nil {
		encT.AddNote("seeded vs stored at D=%d: %.2fx encode throughput, %.0fx smaller encoder state",
			maxD, sd.encodeKRows/st.encodeKRows, float64(st.stateBytes)/float64(sd.stateBytes))
	}
	predT.AddNote("both projections run the same blocked kernels except the projection step: a GEMM over the stored math/rand Gaussian matrix, or table lookups over splitmix64 Rademacher signs")
	predT.AddNote("seeded regenerates its sign words and phases on every encode call, once per row block, and sums ceil(F/8) table lookups per component where stored does F multiply-adds")
	return encT, predT, nil
}
