// Package boosthd is a pure-Go implementation of BoostHD — boosted
// hyperdimensional computing for reliable healthcare machine learning
// (Jeong et al., DATE 2025) — together with every substrate its
// evaluation depends on: the OnlineHD classifier, nonlinear
// hyperdimensional encoders, classical baselines (AdaBoost, Random
// Forest, gradient-boosted trees, linear SVM, MLP), synthetic wearable
// physiological datasets, bit-flip fault injection, and the
// random-matrix / span-utilization analysis of Section III.
//
// This root package re-exports the primary user-facing API; the full
// machinery lives under internal/. Quickstart:
//
//	cfg := boosthd.DefaultConfig(10000, 10, numClasses)
//	model, err := boosthd.Train(trainX, trainY, cfg)
//	pred, err := model.PredictBatch(testX)
//
// See examples/ for end-to-end pipelines and cmd/benchtables for the
// harness that regenerates every table and figure of the paper.
package boosthd

import (
	"io"

	core "boosthd/internal/boosthd"
	"boosthd/internal/dataset"
	"boosthd/internal/encoding"
	"boosthd/internal/faults"
	"boosthd/internal/infer"
	"boosthd/internal/obs"
	"boosthd/internal/onlinehd"
	"boosthd/internal/reliability"
	"boosthd/internal/serve"
	"boosthd/internal/signal"
	"boosthd/internal/synth"
	"boosthd/internal/trainer"
)

// Model is a trained BoostHD ensemble (Algorithm 1): OnlineHD weak
// learners over a partitioned hyperdimensional space combined by
// alpha-weighted voting.
type Model = core.Model

// Config configures a BoostHD ensemble.
type Config = core.Config

// Aggregation selects the ensemble inference rule.
type Aggregation = core.Aggregation

// Aggregation rules: Vote is the hard-vote reading of Algorithm 1, Score
// the soft (similarity-sum) reading.
const (
	Vote  = core.Vote
	Score = core.Score
)

// DefaultConfig returns the paper's ensemble hyperparameters for a total
// dimension, learner count, and class count.
func DefaultConfig(totalDim, numLearners, classes int) Config {
	return core.DefaultConfig(totalDim, numLearners, classes)
}

// Train fits a BoostHD ensemble on feature rows X with labels y.
func Train(X [][]float64, y []int, cfg Config) (*Model, error) {
	return core.Train(X, y, cfg)
}

// OnlineHD is the single-space baseline classifier BoostHD partitions
// (Hernandez-Cano et al., DATE 2021).
type OnlineHD = onlinehd.Model

// OnlineHDConfig configures an OnlineHD model.
type OnlineHDConfig = onlinehd.Config

// OnlineHDDefaultConfig returns the paper's OnlineHD hyperparameters.
func OnlineHDDefaultConfig(dim, classes int) OnlineHDConfig {
	return onlinehd.DefaultConfig(dim, classes)
}

// TrainOnlineHD fits an OnlineHD model; weights (nil = uniform) support
// boosting-style sample re-weighting.
func TrainOnlineHD(X [][]float64, y []int, weights []float64, cfg OnlineHDConfig) (*OnlineHD, error) {
	return onlinehd.Train(X, y, weights, cfg)
}

// Dataset is a labeled feature matrix with optional per-sample subjects.
type Dataset = dataset.Dataset

// SynthConfig configures a synthetic wearable-sensor dataset.
type SynthConfig = synth.Config

// Subject is a simulated study participant with the demographic
// attributes used by person-specific evaluation.
type Subject = synth.Subject

// WESAD returns the synthetic stand-in for the WESAD stress/affect
// dataset together with its subject roster.
func WESAD() (*Dataset, []Subject, error) { return synth.Build(synth.WESADConfig()) }

// NurseStress returns the synthetic stand-in for the Nurse Stress
// dataset.
func NurseStress() (*Dataset, []Subject, error) { return synth.Build(synth.NurseStressConfig()) }

// StressPredict returns the synthetic stand-in for the Stress-Predict
// dataset.
func StressPredict() (*Dataset, []Subject, error) { return synth.Build(synth.StressPredictConfig()) }

// BuildSynth synthesizes a dataset from a custom configuration.
func BuildSynth(cfg SynthConfig) (*Dataset, []Subject, error) { return synth.Build(cfg) }

// SubjectSplit partitions a dataset by subject units, the evaluation
// protocol of the paper.
func SubjectSplit(d *Dataset, subjects []Subject, testFraction float64, seed int64) (train, test *Dataset, testIDs []int, err error) {
	return synth.SubjectSplit(d, subjects, testFraction, seed)
}

// EncoderKind selects the feature-to-hyperspace activation.
type EncoderKind = encoding.Kind

// Encoder kinds.
const (
	Nonlinear = encoding.Nonlinear
	RFF       = encoding.RFF
	Linear    = encoding.Linear
)

// Projection selects where an encoder's random projection lives: a
// stored Gaussian matrix, or a seeded Rademacher projection derived from
// a splitmix64 counter stream — seed-sized checkpoints, and a resident
// plane of sign bytes and phases about 14x smaller than the stored
// matrix, rebuilt and checked from the seed. Set it on
// Config.Projection; the zero value is the stored encoder.
type Projection = encoding.Projection

// Projection modes.
const (
	ProjStored = encoding.ProjStored
	ProjSeeded = encoding.ProjSeeded
)

// ParseProjection maps a CLI spelling ("stored" or "seeded") onto a
// projection mode.
var ParseProjection = encoding.ParseProjection

// Normalizer rescales feature columns with statistics fitted on training
// data (the paper fits normalization before model training).
type Normalizer = signal.Normalizer

// Normalization schemes.
const (
	ZScore = signal.ZScore
	MinMax = signal.MinMax
)

// FitNormalizer computes per-column statistics over training rows.
func FitNormalizer(rows [][]float64, kind signal.NormKind) (*Normalizer, error) {
	return signal.FitNormalizer(rows, kind)
}

// FaultInjector flips stored model bits with a per-bit probability — the
// paper's Figure 8 reliability protocol. Apply it to a trained ensemble
// with Model.InjectClassFaults, which also invalidates the scoring
// engine's cached norms.
type FaultInjector = faults.Injector

// NewFaultInjector builds a bit-flip injector with probability pb.
var NewFaultInjector = faults.NewInjector

// Engine serves predictions from a trained ensemble through a selected
// backend: float cosine scoring, or — after quantization — packed-binary
// Hamming scoring over bit-vector class memories.
type Engine = infer.Engine

// BinaryModel is the packed-binary deployment form of a trained ensemble:
// thresholded bit-vector class memories scored by XOR/popcount Hamming
// similarity, the representation wearable-class hardware runs natively.
type BinaryModel = infer.BinaryModel

// InferBackend selects an Engine's model representation.
type InferBackend = infer.Backend

// Engine backends.
const (
	FloatBackend        = infer.Float
	PackedBinaryBackend = infer.PackedBinary
)

// NewEngine returns a float-backend inference engine over a trained model.
func NewEngine(m *Model) *Engine { return infer.NewEngine(m) }

// NewBinaryEngine quantizes a trained model and returns a packed-binary
// inference engine.
func NewBinaryEngine(m *Model) (*Engine, error) { return infer.NewBinaryEngine(m) }

// Quantize thresholds a trained ensemble into its packed-binary form.
func Quantize(m *Model) (*BinaryModel, error) { return infer.Quantize(m) }

// NewEngineFromBinary wraps a cold-loaded binary snapshot in a
// packed-binary serving engine.
func NewEngineFromBinary(bm *BinaryModel) *Engine { return infer.NewEngineFromBinary(bm) }

// LoadModel reads a BoostHD ensemble checkpoint written by Model.Save.
// Checkpoints are versioned: foreign or newer-format blobs fail loudly,
// and class vectors install through the learners' lock-aware mutation
// API, so a reload into a serving process is always coherent.
func LoadModel(r io.Reader) (*Model, error) { return core.Load(r) }

// LoadOnlineHD reads an OnlineHD checkpoint written by OnlineHD.Save.
func LoadOnlineHD(r io.Reader) (*OnlineHD, error) { return onlinehd.Load(r) }

// LoadBinaryModel reads a quantized binary snapshot written by
// BinaryModel.Save. The result serves without re-quantization and
// without the float class memory (see BinaryModel.Frozen).
func LoadBinaryModel(r io.Reader) (*BinaryModel, error) { return infer.LoadBinary(r) }

// Server is the production serving layer: an adaptive micro-batcher
// that coalesces concurrent Predict calls into the engine's fused batch
// pipeline, with atomic hot-swap between checkpoints.
type Server = serve.Server

// ServeConfig tunes the micro-batcher (max batch, straggler wait,
// worker count, queue depth).
type ServeConfig = serve.Config

// ServeStats is a point-in-time snapshot of a Server's counters.
type ServeStats = serve.Stats

// NewServer starts a serving layer over an inference engine.
func NewServer(eng *Engine, cfg ServeConfig) (*Server, error) { return serve.NewServer(eng, cfg) }

// NewServeHandler exposes a Server over HTTP/JSON (/predict,
// /predict_batch, /healthz, /swap) with the default hardening: body
// and batch-row caps at their defaults, /swap disabled, no trainer.
var NewServeHandler = serve.Handler

// ServeHandlerConfig hardens and extends the HTTP layer: request body
// cap (413 beyond), batch row cap, the /swap checkpoint allowlist
// root, and the streaming trainer behind /observe and /retrain.
type ServeHandlerConfig = serve.HandlerConfig

// NewConfiguredServeHandler exposes a Server over HTTP/JSON with
// explicit hardening and trainer wiring.
var NewConfiguredServeHandler = serve.NewHandler

// LoadServeEngine builds a serving engine from a checkpoint file:
// "float" for the ensemble checkpoint, "binary" for a quantized engine
// (from a binary snapshot directly, or by quantizing a float
// checkpoint).
var LoadServeEngine = serve.LoadEngine

// Trainer is the streaming continual-learning subsystem: labeled
// samples flow in through Observe — buffered in a bounded label-aware
// store (sliding window + per-class reservoirs) and applied to the live
// model as incremental OnlineHD steps under the learners' write locks —
// and Retrain refits a replacement ensemble over the buffer off the
// serving path, installing it through the server's atomic engine swap
// with zero dropped requests.
type Trainer = trainer.Trainer

// TrainerConfig tunes the trainer: buffer capacity, retrain threshold
// and period, swap-time backend, online-update toggle.
type TrainerConfig = trainer.Config

// TrainerBuffer is the bounded label-aware sample buffer behind a
// Trainer.
type TrainerBuffer = trainer.Buffer

// RetrainReport describes one Trainer.Retrain call.
type RetrainReport = serve.RetrainReport

// TrainerStatus is a point-in-time snapshot of trainer counters.
type TrainerStatus = serve.TrainerStatus

// NewTrainer builds a Trainer over the float model behind srv's
// current serving engine. A frozen binary snapshot (cold-loaded, no
// float class memory) is rejected.
func NewTrainer(srv *Server, cfg TrainerConfig) (*Trainer, error) {
	return trainer.New(srv, cfg)
}

// Delta is a tenant's copy-on-write personalization: replacement class
// memories for a few of the base ensemble's weak learners plus a
// private alpha slice. A delta view over the shared base predicts
// bit-for-bit like a fully materialized per-tenant model on both
// backends while sharing everything it does not override.
type Delta = core.Delta

// TenantRegistry multiplexes one serving process across tenants: a
// tenant ID resolves to an engine view built from the shared base model
// plus the tenant's copy-on-write delta, with an LRU over resident
// views and cold loads from a write-through DeltaStore.
type TenantRegistry = serve.TenantRegistry

// TenantRegistryConfig tunes the registry (delta store, LRU capacity,
// lock-stripe shard count).
type TenantRegistryConfig = serve.TenantRegistryConfig

// TenantStats is a point-in-time snapshot of a TenantRegistry.
type TenantStats = serve.TenantStats

// DeltaStore is the per-tenant checkpoint store behind a registry.
type DeltaStore = serve.DeltaStore

// FileDeltaStore persists one delta record per tenant under a directory,
// plus an append journal of changed-learner patches so steady-state
// refit I/O is proportional to learners moved.
type FileDeltaStore = serve.FileDeltaStore

// NewFileDeltaStore opens a journaling delta store rooted at dir.
func NewFileDeltaStore(dir string) *FileDeltaStore {
	return serve.NewFileDeltaStore(dir)
}

// NewTenantRegistry builds a registry multiplexing srv's serving engine.
func NewTenantRegistry(srv *Server, cfg TenantRegistryConfig) (*TenantRegistry, error) {
	return serve.NewTenantRegistry(srv, cfg)
}

// TenantTrainer is the per-tenant continual-learning subsystem: tenant
// observations buffer privately (never touching the shared base), and a
// tenant retrain refits only that tenant's delta learners, installing
// the result through the registry.
type TenantTrainer = trainer.TenantTrainer

// TenantTrainerConfig tunes the tenant trainer (buffer capacity,
// retrain threshold, copy-on-write learner budget).
type TenantTrainerConfig = trainer.TenantConfig

// NewTenantTrainer builds a TenantTrainer installing deltas into reg.
func NewTenantTrainer(reg *TenantRegistry, cfg TenantTrainerConfig) (*TenantTrainer, error) {
	return trainer.NewTenantTrainer(reg, cfg)
}

// ReliabilityMonitor is the runtime integrity subsystem for a serving
// model: segmented integrity signatures over the model memory verified
// by a background scrubber, a held-out canary that scores each weak
// learner solo, two-tier quarantine — corrupted dimension words masked
// out of the vote, whole-learner alpha-masking as the criticality-
// ranked fallback — installed through an atomic engine swap, and
// surgical repair (per-learner re-threshold, per-segment checkpoint
// restore, or a trainer hot-retrain) — the paper's fault-tolerance
// claim turned into a live serving guarantee.
type ReliabilityMonitor = reliability.Monitor

// ReliabilityConfig tunes the monitor: scrub period, canary quarantine
// threshold, signature segment width and healthy-fraction floor for
// the dimension-vs-learner quarantine decision, checkpoint/trainer
// repair sources, and how versioned (locked) mutations are judged
// (strict, signed-update handoff, or trusted).
type ReliabilityConfig = reliability.Config

// ReliabilityStatus is a point-in-time snapshot of the monitor: the
// per-learner health ledger plus scrub/quarantine/repair counters.
type ReliabilityStatus = serve.ReliabilityStatus

// ScrubReport describes one Monitor.Scrub detection pass.
type ScrubReport = reliability.ScrubReport

// RepairReport describes one Monitor.Repair restoration pass.
type RepairReport = reliability.RepairReport

// NewReliabilityMonitor builds a Monitor over the model behind srv's
// current serving engine and signs it as the trusted baseline.
func NewReliabilityMonitor(srv *Server, cfg ReliabilityConfig) (*ReliabilityMonitor, error) {
	return reliability.New(srv, cfg)
}

// ServingObservability bundles a serving process's observability
// surface: lock-free sharded latency histograms (request, batch wait,
// batch size, encode, score, tenant cold load), cumulative per-backend
// stage timing, a sampled per-request stage tracer, and the typed
// reliability/tenant event journal. Wire it with Server.SetObs; the
// HTTP layer then exposes it through /metrics, /trace, and /events.
type ServingObservability = obs.Serving

// NewServingObservability builds the bundle. sampleEvery captures every
// Nth request's full stage trace (0 = no per-request traces; histograms
// and the journal are always live); traceRing and eventRing bound the
// retained history (0 = defaults).
func NewServingObservability(sampleEvery, traceRing, eventRing int) *ServingObservability {
	return obs.NewServing(sampleEvery, traceRing, eventRing)
}

// LatencyHistogram is a lock-free sharded fixed-bucket histogram with
// power-of-two bucket bounds; recording is allocation-free and safe on
// the serving hot path.
type LatencyHistogram = obs.Histogram

// ObsSpan is one sampled request's stage trace (admission, queue,
// encode, score, aggregate) with its correlation and batch IDs.
type ObsSpan = obs.Span

// ObsEvent is one typed entry in the reliability/tenant event journal:
// monotonic sequence, wall time, correlation ID, and learner/segment/
// tenant attribution.
type ObsEvent = obs.Event

// ObsJournal is the bounded event ring behind /events, optionally
// mirrored to a JSONL file.
type ObsJournal = obs.Journal

// Remask builds the serving engine for a quarantine mask: an
// alpha-masked view of base served through cur's backend, sharing the
// expensive backend state. Scoring skips masked learners entirely, so
// their (possibly corrupted) memory is never read.
var Remask = infer.Remask

// RemaskDims is the dimension-granular variant: healthy[i] non-nil
// keeps learner i voting over only its trusted dimensions (packed
// bitmask over the learner's local dimensions), while masked[i] true
// still zeroes the whole vote. Both scoring backends honor the masks.
var RemaskDims = infer.RemaskDims
