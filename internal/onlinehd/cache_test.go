package onlinehd

import (
	"math"
	"math/rand"
	"testing"

	"boosthd/internal/hdc"
)

// freshNorms recomputes class norms directly, bypassing the cache.
func freshNorms(c *HVClassifier) []float64 {
	out := make([]float64, c.Classes)
	for l, cv := range c.Class {
		out[l] = hdc.Norm(cv)
	}
	return out
}

func randomTrainingSet(rng *rand.Rand, n, dim, classes int) ([]hdc.Vector, []int) {
	hs := make([]hdc.Vector, n)
	y := make([]int, n)
	for i := range hs {
		c := i % classes
		h := make(hdc.Vector, dim)
		for j := range h {
			h[j] = rng.NormFloat64() + float64(c)
		}
		hs[i] = h
		y[i] = c
	}
	return hs, y
}

// TestClassNormsCachedAndRefreshedByFit pins the version-counter design:
// ClassNorms returns the same backing slice while nothing mutates, and a
// second Fit (which rewrites the class vectors) refreshes the values.
func TestClassNormsCachedAndRefreshedByFit(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c, err := NewHVClassifier(64, 3, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	hs, y := randomTrainingSet(rng, 90, 64, 3)
	if err := c.Fit(hs, y, FitOptions{Epochs: 2}); err != nil {
		t.Fatal(err)
	}
	v1 := c.Version()
	n1 := c.ClassNorms()
	for l, want := range freshNorms(c) {
		if n1[l] != want {
			t.Fatalf("class %d cached norm %v != fresh %v", l, n1[l], want)
		}
	}
	if c.Version() != v1 {
		t.Fatal("ClassNorms must not bump the version")
	}

	// Retrain on shifted data: version bumps, cache refreshes.
	hs2, y2 := randomTrainingSet(rng, 90, 64, 3)
	for _, h := range hs2 {
		for j := range h {
			h[j] *= 2.5
		}
	}
	if err := c.Fit(hs2, y2, FitOptions{Epochs: 2}); err != nil {
		t.Fatal(err)
	}
	if c.Version() == v1 {
		t.Fatal("Fit must bump the version counter")
	}
	n2 := c.ClassNorms()
	for l, want := range freshNorms(c) {
		if n2[l] != want {
			t.Fatalf("after refit, class %d cached norm %v != fresh %v", l, n2[l], want)
		}
	}
}

// TestInvalidateRefreshesNormsAfterDirectMutation covers the fault-
// injection contract: mutate Class in place, call Invalidate, and scoring
// must see the new norms.
func TestInvalidateRefreshesNormsAfterDirectMutation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c, err := NewHVClassifier(32, 2, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	hs, y := randomTrainingSet(rng, 40, 32, 2)
	if err := c.Fit(hs, y, FitOptions{Epochs: 1}); err != nil {
		t.Fatal(err)
	}
	stale := append([]float64(nil), c.ClassNorms()...)
	for j := range c.Class[0] {
		c.Class[0][j] *= 10
	}
	c.Invalidate()
	got := c.ClassNorms()
	if math.Abs(got[0]-10*stale[0]) > 1e-9*stale[0] {
		t.Fatalf("norm after Invalidate = %v, want ~%v", got[0], 10*stale[0])
	}

	// ScoresInto must agree with a from-scratch cosine.
	q := hs[0]
	out := make([]float64, 2)
	c.ScoresInto(q, out)
	for l, cv := range c.Class {
		want := hdc.Cosine(q, cv)
		if math.Abs(out[l]-want) > 1e-12 {
			t.Fatalf("class %d score %v != cosine %v", l, out[l], want)
		}
	}
}

// TestClassNormsSnapshotImmutable pins the copy-on-refresh contract: a
// slice returned by ClassNorms keeps its values forever, even after the
// class vectors mutate and the cache refreshes — so a batch scorer that
// snapshotted the norms never sees them rewritten mid-batch.
func TestClassNormsSnapshotImmutable(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	c, err := NewHVClassifier(48, 3, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	hs, y := randomTrainingSet(rng, 60, 48, 3)
	if err := c.Fit(hs, y, FitOptions{Epochs: 1}); err != nil {
		t.Fatal(err)
	}
	old := c.ClassNorms()
	frozen := append([]float64(nil), old...)

	// Mutate through MutateClass (version bump included) and refresh.
	c.MutateClass(func(class []hdc.Vector) {
		for j := range class[0] {
			class[0][j] *= 4
		}
	})
	fresh := c.ClassNorms()
	for l := range frozen {
		if old[l] != frozen[l] {
			t.Fatalf("refresh rewrote previously returned norms: class %d %v -> %v", l, frozen[l], old[l])
		}
	}
	if &fresh[0] == &old[0] {
		t.Fatal("refresh must allocate a new snapshot, not reuse the backing array")
	}
	if math.Abs(fresh[0]-4*frozen[0]) > 1e-9*frozen[0] {
		t.Fatalf("fresh norm %v, want ~%v", fresh[0], 4*frozen[0])
	}
	for l, want := range freshNorms(c) {
		if fresh[l] != want {
			t.Fatalf("class %d refreshed norm %v != fresh %v", l, fresh[l], want)
		}
	}
}

// TestReadClassConsistentPair checks ReadClass hands fn the version the
// vectors are actually at: a mutation between two reads changes both.
func TestReadClassConsistentPair(t *testing.T) {
	c, err := NewHVClassifier(8, 2, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	var v1, v2 uint64
	var first float64
	c.ReadClass(func(class []hdc.Vector, version uint64) {
		v1 = version
		first = class[0][0]
	})
	c.MutateClass(func(class []hdc.Vector) { class[0][0] = 42 })
	c.ReadClass(func(class []hdc.Vector, version uint64) {
		v2 = version
		if class[0][0] != 42 {
			t.Fatalf("ReadClass saw %v after MutateClass wrote 42", class[0][0])
		}
	})
	if v2 != v1+1 {
		t.Fatalf("MutateClass bumped version %d -> %d, want +1", v1, v2)
	}
	if first == 42 {
		t.Fatal("first read unexpectedly saw the mutation")
	}
}

// TestScoresIntoMatchesScores checks the allocation-free path and the
// allocating wrapper agree exactly.
func TestScoresIntoMatchesScores(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c, err := NewHVClassifier(48, 4, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	hs, y := randomTrainingSet(rng, 80, 48, 4)
	if err := c.Fit(hs, y, FitOptions{Epochs: 2}); err != nil {
		t.Fatal(err)
	}
	out := make([]float64, 4)
	for _, h := range hs[:20] {
		c.ScoresInto(h, out)
		s := c.Scores(h)
		for l := range s {
			if s[l] != out[l] {
				t.Fatalf("Scores %v != ScoresInto %v", s, out)
			}
		}
	}
	// Zero query: all-zero scores by convention.
	c.ScoresInto(make(hdc.Vector, 48), out)
	for l, v := range out {
		if v != 0 {
			t.Fatalf("zero query score[%d] = %v", l, v)
		}
	}
}

// TestUpdateKeepsNormCacheCurrent: a streaming Update leaves the norm
// cache at the current version, holding exactly the norms a fresh
// computation gives, whether or not the sample moved memory, and a
// moved sample never rewrites a snapshot a reader already holds.
func TestUpdateKeepsNormCacheCurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c, err := NewHVClassifier(48, 4, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	hs, y := randomTrainingSet(rng, 80, 48, 4)
	if err := c.Fit(hs[:8], y[:8], FitOptions{Epochs: 1}); err != nil {
		t.Fatal(err)
	}
	moves := 0
	for i, h := range hs {
		held := c.ClassNorms()
		heldCopy := append([]float64(nil), held...)
		moved, err := c.Update(h, y[(i+1)%len(y)])
		if err != nil {
			t.Fatal(err)
		}
		if moved {
			moves++
		}
		if c.normVer != c.version {
			t.Fatalf("update %d: cache at version %d, memory at %d", i, c.normVer, c.version)
		}
		for l, want := range freshNorms(c) {
			if math.Float64bits(c.norms[l]) != math.Float64bits(want) {
				t.Fatalf("update %d class %d: cached norm %v, fresh %v", i, l, c.norms[l], want)
			}
		}
		for l := range held {
			if math.Float64bits(held[l]) != math.Float64bits(heldCopy[l]) {
				t.Fatalf("update %d rewrote a held norm snapshot", i)
			}
		}
	}
	if moves == 0 {
		t.Fatal("no update moved class memory")
	}
}
