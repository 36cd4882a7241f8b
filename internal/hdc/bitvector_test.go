package hdc

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewBitVector(t *testing.T) {
	b := NewBitVector(100)
	if b.N != 100 || len(b.Words) != 2 {
		t.Errorf("unexpected shape: N=%d words=%d", b.N, len(b.Words))
	}
	if b.Ones() != 0 {
		t.Error("new bitvector should be all zeros")
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for non-positive dimension")
		}
	}()
	NewBitVector(0)
}

func TestSetGet(t *testing.T) {
	b := NewBitVector(130)
	b.Set(0, true)
	b.Set(64, true)
	b.Set(129, true)
	for _, i := range []int{0, 64, 129} {
		if !b.Get(i) {
			t.Errorf("bit %d should be set", i)
		}
	}
	if b.Ones() != 3 {
		t.Errorf("Ones = %d, want 3", b.Ones())
	}
	b.Set(64, false)
	if b.Get(64) {
		t.Error("bit 64 should be cleared")
	}
}

func TestRandomBitsTailMasked(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	b := RandomBits(70, rng) // 6 tail bits must be zeroed
	tail := b.Words[1] >> 6
	if tail != 0 {
		t.Errorf("tail bits not masked: %x", tail)
	}
	if b.Ones() > 70 {
		t.Errorf("Ones = %d exceeds dimension", b.Ones())
	}
}

func TestXORBindingProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := RandomBits(256, rng)
	b := RandomBits(256, rng)
	ab := XOR(a, b)
	// Self-inverse: (a^b)^b == a.
	back := XOR(ab, b)
	if Hamming(back, a) != 0 {
		t.Error("XOR binding must be self-inverse")
	}
	// XOR with itself is zero.
	if XOR(a, a).Ones() != 0 {
		t.Error("a^a must be zero")
	}
}

func TestHamming(t *testing.T) {
	a := NewBitVector(8)
	b := NewBitVector(8)
	a.Set(0, true)
	a.Set(3, true)
	b.Set(3, true)
	b.Set(5, true)
	if d := Hamming(a, b); d != 2 {
		t.Errorf("Hamming = %d, want 2", d)
	}
}

func TestHammingSim(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := RandomBits(4096, rng)
	if s := HammingSim(a, a); s != 1 {
		t.Errorf("self-similarity = %v, want 1", s)
	}
	comp := a.Clone()
	for i := range comp.Words {
		comp.Words[i] = ^comp.Words[i]
	}
	comp.maskTail()
	if s := HammingSim(a, comp); s != -1 {
		t.Errorf("complement similarity = %v, want -1", s)
	}
	b := RandomBits(4096, rng)
	if s := HammingSim(a, b); math.Abs(s) > 0.08 {
		t.Errorf("random vectors should be quasi-orthogonal: %v", s)
	}
}

// majorityReference is the original per-bit implementation, kept as the
// oracle for the word-parallel rewrite.
func majorityReference(vs ...*BitVector) *BitVector {
	if len(vs) == 0 {
		return nil
	}
	n := vs[0].N
	out := NewBitVector(n)
	half := len(vs) / 2
	for i := 0; i < n; i++ {
		cnt := 0
		for _, v := range vs {
			if v.Get(i) {
				cnt++
			}
		}
		if cnt > half {
			out.Set(i, true)
		}
	}
	return out
}

// TestMajorityMatchesReference drives the word-parallel Majority against
// the per-bit oracle over odd/even counts and tail-word dimensions.
func TestMajorityMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for _, n := range []int{1, 63, 64, 65, 127, 1000} {
		for _, count := range []int{1, 2, 3, 4, 7, 10, 21} {
			vs := make([]*BitVector, count)
			for i := range vs {
				vs[i] = RandomBits(n, rng)
			}
			got := Majority(vs...)
			want := majorityReference(vs...)
			for w := range want.Words {
				if got.Words[w] != want.Words[w] {
					t.Fatalf("n=%d count=%d word %d: %x != %x", n, count, w, got.Words[w], want.Words[w])
				}
			}
		}
	}
}

func TestMajority(t *testing.T) {
	a := NewBitVector(4)
	b := NewBitVector(4)
	c := NewBitVector(4)
	// bit0: 3 votes, bit1: 2 votes, bit2: 1 vote, bit3: 0 votes
	a.Set(0, true)
	b.Set(0, true)
	c.Set(0, true)
	a.Set(1, true)
	b.Set(1, true)
	a.Set(2, true)
	m := Majority(a, b, c)
	if !m.Get(0) || !m.Get(1) || m.Get(2) || m.Get(3) {
		t.Errorf("Majority bits = %v %v %v %v", m.Get(0), m.Get(1), m.Get(2), m.Get(3))
	}
	if Majority() != nil {
		t.Error("Majority() should be nil")
	}
}

func TestMajorityRetainsSimilarity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vs := make([]*BitVector, 5)
	for i := range vs {
		vs[i] = RandomBits(4096, rng)
	}
	m := Majority(vs...)
	for i, v := range vs {
		if s := HammingSim(m, v); s < 0.2 {
			t.Errorf("majority should stay similar to component %d: %v", i, s)
		}
	}
}

func TestFromVectorToVectorRoundTrip(t *testing.T) {
	v := Vector{-1.5, 2.3, -0.1, 0}
	b := FromVector(v)
	if b.Get(0) || !b.Get(1) || b.Get(2) || !b.Get(3) {
		t.Error("FromVector thresholding wrong")
	}
	back := b.ToVector()
	want := Vector{-1, 1, -1, 1}
	for i := range want {
		if back[i] != want[i] {
			t.Errorf("ToVector = %v, want %v", back, want)
		}
	}
}

// Property: Hamming distance is a metric (symmetry + identity + triangle).
func TestHammingMetricQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	f := func(seedA, seedB, seedC int64) bool {
		n := 64 + rng.Intn(100)
		a := RandomBits(n, rand.New(rand.NewSource(seedA)))
		b := RandomBits(n, rand.New(rand.NewSource(seedB)))
		c := RandomBits(n, rand.New(rand.NewSource(seedC)))
		if Hamming(a, b) != Hamming(b, a) {
			return false
		}
		if Hamming(a, a) != 0 {
			return false
		}
		return Hamming(a, c) <= Hamming(a, b)+Hamming(b, c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: XOR never changes the dimension and Ones stays within [0, N].
func TestXOROnesBoundsQuick(t *testing.T) {
	f := func(seedA, seedB int64, nRaw uint8) bool {
		n := int(nRaw)%200 + 1
		a := RandomBits(n, rand.New(rand.NewSource(seedA)))
		b := RandomBits(n, rand.New(rand.NewSource(seedB)))
		x := XOR(a, b)
		return x.N == n && x.Ones() >= 0 && x.Ones() <= n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// The binary operations below (XOR binding, Hamming similarity, majority
// bundling) are the hardware-oriented half of the classic HDC algebra.
// The packed-binary backend scores with its own kernels and uses none of
// them, so they live beside the tests that check their properties.

// NewBitVector returns an all-zero binary hypervector of dimension n.
func NewBitVector(n int) *BitVector {
	if n <= 0 {
		panic(fmt.Sprintf("hdc: invalid bitvector dimension %d", n))
	}
	return &BitVector{N: n, Words: make([]uint64, (n+63)/64)}
}

// RandomBits returns a binary hypervector with i.i.d. uniform bits.
func RandomBits(n int, rng *rand.Rand) *BitVector {
	b := NewBitVector(n)
	for i := range b.Words {
		b.Words[i] = rng.Uint64()
	}
	b.maskTail()
	return b
}

// maskTail clears the unused bits of the final word so popcounts stay
// consistent regardless of how the words were produced.
func (b *BitVector) maskTail() {
	if rem := b.N % 64; rem != 0 {
		b.Words[len(b.Words)-1] &= (1 << uint(rem)) - 1
	}
}

// Get reports bit i.
func (b *BitVector) Get(i int) bool {
	return b.Words[i/64]&(1<<uint(i%64)) != 0
}

// Set assigns bit i.
func (b *BitVector) Set(i int, v bool) {
	if v {
		b.Words[i/64] |= 1 << uint(i%64)
	} else {
		b.Words[i/64] &^= 1 << uint(i%64)
	}
}

// Clone returns a deep copy of b.
func (b *BitVector) Clone() *BitVector {
	out := &BitVector{N: b.N, Words: make([]uint64, len(b.Words))}
	copy(out.Words, b.Words)
	return out
}

// XOR returns a^b, the binary binding operator.
func XOR(a, b *BitVector) *BitVector {
	mustSameDim(a.N, b.N)
	out := a.Clone()
	for i, w := range b.Words {
		out.Words[i] ^= w
	}
	return out
}

// Hamming returns the number of differing bits between a and b.
func Hamming(a, b *BitVector) int {
	mustSameDim(a.N, b.N)
	d := 0
	for i, w := range a.Words {
		d += bits.OnesCount64(w ^ b.Words[i])
	}
	return d
}

// HammingSim returns 1 - 2*Hamming/N, the binary analogue of cosine
// similarity: +1 for identical vectors, -1 for complements, ~0 for
// independent random vectors.
func HammingSim(a, b *BitVector) float64 {
	return 1 - 2*float64(Hamming(a, b))/float64(a.N)
}

// Majority bundles binary hypervectors by per-bit majority vote; ties
// (possible only for an even count) break toward zero. It returns nil for
// no input.
//
// The vote runs word-parallel: for each 64-bit word position the set bits
// of every input word are drained with popcount-style trailing-zero
// extraction into 64 lane counters, then the winning lanes are packed back
// into the output word. No per-bit Get/Set calls, and lanes that no input
// sets cost nothing.
func Majority(vs ...*BitVector) *BitVector {
	if len(vs) == 0 {
		return nil
	}
	n := vs[0].N
	for _, v := range vs[1:] {
		mustSameDim(n, v.N)
	}
	out := NewBitVector(n)
	half := uint32(len(vs) / 2)
	var cnt [64]uint32
	for w := range out.Words {
		for i := range cnt {
			cnt[i] = 0
		}
		for _, v := range vs {
			word := v.Words[w]
			for word != 0 {
				b := bits.TrailingZeros64(word)
				cnt[b]++
				word &= word - 1
			}
		}
		var res uint64
		for b, c := range cnt {
			if c > half {
				res |= 1 << uint(b)
			}
		}
		out.Words[w] = res
	}
	return out
}

// FromVector thresholds a real hypervector at 0 into a binary one
// (negative components become 0-bits, the rest 1-bits).
func FromVector(v Vector) *BitVector {
	b := NewBitVector(len(v))
	for i, x := range v {
		if x >= 0 {
			b.Set(i, true)
		}
	}
	return b
}

// ToVector expands b into a bipolar real hypervector (+1 for set bits).
func (b *BitVector) ToVector() Vector {
	v := make(Vector, b.N)
	for i := range v {
		if b.Get(i) {
			v[i] = 1
		} else {
			v[i] = -1
		}
	}
	return v
}
