package trainer

import (
	"testing"
)

// TestBufferBoundedAndOrdered: the buffer never exceeds its capacity,
// and the snapshot ends with the window's samples oldest-to-newest.
func TestBufferBoundedAndOrdered(t *testing.T) {
	const capacity, classes = 64, 2
	b := NewBuffer(capacity, classes, 1)
	for i := 0; i < 10*capacity; i++ {
		b.Add([]float64{float64(i)}, i%classes)
		if b.Len() > capacity {
			t.Fatalf("after %d adds: %d buffered > cap %d", i+1, b.Len(), capacity)
		}
	}
	if b.Added() != 10*capacity {
		t.Fatalf("added %d, want %d", b.Added(), 10*capacity)
	}
	X, y := b.Snapshot()
	if len(X) != len(y) || len(X) != b.Len() {
		t.Fatalf("snapshot %d rows, %d labels, Len %d", len(X), len(y), b.Len())
	}
	// The most recent windowCap samples must be present, in order, at the
	// tail of the snapshot.
	windowCap := capacity / 2
	tail := X[len(X)-windowCap:]
	for i, row := range tail {
		want := float64(10*capacity - windowCap + i)
		if row[0] != want {
			t.Fatalf("window tail[%d] = %v, want %v", i, row[0], want)
		}
	}
}

// TestBufferRareClassSurvives: a class appearing once every 50 samples
// must keep representation after the window has slid far past its last
// occurrence — the per-class reservoir is exactly for this.
func TestBufferRareClassSurvives(t *testing.T) {
	const capacity = 64
	b := NewBuffer(capacity, 2, 1)
	for i := 0; i < 2000; i++ {
		label := 0
		if i%50 == 0 && i < 1000 {
			label = 1 // rare class stops appearing after sample 1000
		}
		b.Add([]float64{float64(i)}, label)
	}
	counts := b.PerClass()
	if counts[1] == 0 {
		t.Fatalf("rare class evicted entirely: per-class %v", counts)
	}
	// And the snapshot labels agree with the count.
	_, y := b.Snapshot()
	rare := 0
	for _, l := range y {
		if l == 1 {
			rare++
		}
	}
	if rare != counts[1] {
		t.Fatalf("snapshot holds %d rare samples, PerClass says %d", rare, counts[1])
	}
}

// TestBufferCopiesRows: mutating the caller's row after Add must not
// reach the stored sample.
func TestBufferCopiesRows(t *testing.T) {
	b := NewBuffer(8, 2, 1)
	row := []float64{1, 2, 3}
	b.Add(row, 0)
	row[0] = 99
	X, _ := b.Snapshot()
	if X[0][0] != 1 {
		t.Fatalf("stored row aliased caller memory: %v", X[0])
	}
}

// PerClass returns how many buffered samples each class holds (window
// plus reservoir).
func (b *Buffer) PerClass() []int {
	b.mu.Lock()
	defer b.mu.Unlock()
	counts := make([]int, len(b.res))
	for c, r := range b.res {
		counts[c] = len(r)
	}
	for _, s := range b.window {
		if s.y >= 0 && s.y < len(counts) {
			counts[s.y]++
		}
	}
	return counts
}

// Added returns the total number of samples ever ingested.
func (b *Buffer) Added() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.added
}
