package hdc

import "math/bits"

// BitVector is a packed binary hypervector: component i is bit i%64 of
// word i/64. Binary hypervectors trade precision for the word-parallel
// XOR/popcount operations wearable-class hardware implements natively.
type BitVector struct {
	N     int // logical dimensionality
	Words []uint64
}

// Ones returns the number of set bits.
func (b *BitVector) Ones() int {
	n := 0
	for _, w := range b.Words {
		n += bits.OnesCount64(w)
	}
	return n
}
