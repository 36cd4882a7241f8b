// Package trainer is the streaming continual-learning subsystem: it
// keeps a serving BoostHD model fresh without downtime. Labeled samples
// stream in through Observe, which feeds a bounded label-aware buffer
// and (optionally) nudges the live model's class memories through the
// lock-aware incremental update path; a retrain loop periodically
// refits the ensemble over the buffer off the serving path — boosting
// alphas recomputed by the same SAMME core that trained it — and
// installs the result through the server's atomic engine swap, so
// in-flight batches finish on the old model and no request is dropped.
package trainer

import (
	"math/rand"
	"sync"
)

// sample is one buffered observation. The feature row is copied on
// ingestion and never written afterwards, so snapshots may alias it.
type sample struct {
	x []float64
	y int
}

// Buffer is the bounded label-aware sample store behind a Trainer: a
// sliding window of the most recent samples — retraining should track
// the present, which is what drift adaptation needs — plus one
// reservoir per class fed by window evictions, so classes that appear
// rarely in the stream (the paper's minority affect states) keep
// representation after the window has slid past them. Memory is bounded
// by construction: at most cap samples are retained, split evenly
// between the window and the reservoirs.
type Buffer struct {
	mu     sync.Mutex
	window []sample // ring buffer of the most recent samples
	head   int      // next write position once the ring is full
	filled bool     // ring has wrapped at least once
	res    [][]sample
	resCap int
	seen   []int // per-class eviction counter driving reservoir sampling
	rng    *rand.Rand
	added  uint64
}

// NewBuffer builds a buffer holding at most capacity samples across
// `classes` classes. Half the capacity is the sliding window; the other
// half is split into per-class reservoirs (each at least one slot).
func NewBuffer(capacity, classes int, seed int64) *Buffer {
	if classes < 1 {
		classes = 1
	}
	if capacity < 2*classes {
		capacity = 2 * classes
	}
	windowCap := capacity / 2
	resCap := (capacity - windowCap) / classes
	if resCap < 1 {
		resCap = 1
	}
	return &Buffer{
		window: make([]sample, 0, windowCap),
		res:    make([][]sample, classes),
		resCap: resCap,
		seen:   make([]int, classes),
		rng:    rand.New(rand.NewSource(seed)),
	}
}

// Add ingests one labeled sample (the row is copied). When the sliding
// window is full, the evicted oldest sample is offered to its class
// reservoir under classic reservoir sampling, so each reservoir holds a
// uniform sample of everything its class has ever evicted.
func (b *Buffer) Add(x []float64, y int) {
	row := make([]float64, len(x))
	copy(row, x)
	s := sample{x: row, y: y}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.added++
	if len(b.window) < cap(b.window) {
		b.window = append(b.window, s)
		return
	}
	evicted := b.window[b.head]
	b.window[b.head] = s
	b.head = (b.head + 1) % cap(b.window)
	b.filled = true
	b.offer(evicted)
}

// offer runs one reservoir-sampling step for the evicted sample's class.
func (b *Buffer) offer(s sample) {
	c := s.y
	if c < 0 || c >= len(b.res) {
		return
	}
	b.seen[c]++
	if len(b.res[c]) < b.resCap {
		b.res[c] = append(b.res[c], s)
		return
	}
	if j := b.rng.Intn(b.seen[c]); j < b.resCap {
		b.res[c][j] = s
	}
}

// Snapshot returns the buffered samples — reservoir survivors first,
// then the window oldest-to-newest — as parallel feature and label
// slices. The rows alias the immutable stored copies, so the snapshot
// is safe to train on while ingestion continues.
func (b *Buffer) Snapshot() ([][]float64, []int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := len(b.window)
	for _, r := range b.res {
		n += len(r)
	}
	X := make([][]float64, 0, n)
	y := make([]int, 0, n)
	push := func(s sample) {
		X = append(X, s.x)
		y = append(y, s.y)
	}
	for _, r := range b.res {
		for _, s := range r {
			push(s)
		}
	}
	if b.filled {
		for i := 0; i < len(b.window); i++ {
			push(b.window[(b.head+i)%len(b.window)])
		}
	} else {
		for _, s := range b.window {
			push(s)
		}
	}
	return X, y
}

// Len returns the number of buffered samples.
func (b *Buffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := len(b.window)
	for _, r := range b.res {
		n += len(r)
	}
	return n
}
