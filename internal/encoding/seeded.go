package encoding

import (
	"fmt"
	"math"
	"sync"
)

// tilePool recycles the +-1 projection tiles a seeded encoder's kernels
// regenerate rows into. Small serving batches would otherwise allocate a
// tile per (learner, call) — tens of kilobytes each — and spend more in
// the allocator than in the tile regeneration itself.
var tilePool sync.Pool

func getTile(n int) []float64 {
	if v := tilePool.Get(); v != nil {
		if t := v.([]float64); cap(t) >= n {
			return t[:n]
		}
	}
	return make([]float64, n)
}

func putTile(t []float64) { tilePool.Put(t) }

// Projection selects where an encoder's random projection lives.
//
// A stored encoder (ProjStored) materializes an OutDim x InDim float64
// matrix drawn from math/rand — at paper scale (D=10000, F=36) that is
// ~2.9 MB of state swept once per encoded row block, and it dominates both
// encoder memory and cache traffic. A seeded encoder (ProjSeeded) replaces
// the Gaussian matrix with Rademacher (+1/-1) rows produced by a
// counter-based splitmix64 generator keyed on (seed, row, feature-word):
// any projection word is computable in O(1) from the seed alone, so the
// kernels regenerate each tile of rows as they sweep it and the encoder
// carries O(1) projection state at any dimensionality.
type Projection int

const (
	// ProjStored is the materialized Gaussian projection drawn
	// sequentially from math/rand. It is the zero value, so existing
	// checkpoints rebuild the exact encoder they were trained with.
	ProjStored Projection = 0
	// ProjSeeded regenerates projection rows and phases inside the encode
	// kernels from the splitmix64 counter streams: O(1) encoder state, no
	// projection memory traffic. Its value is fixed by the checkpoint
	// wire format; value 1 belonged to a retired mode that materialized
	// the same rows.
	ProjSeeded Projection = 2
)

// String names the projection mode.
func (p Projection) String() string {
	switch p {
	case ProjStored:
		return "stored"
	case ProjSeeded:
		return "seeded"
	default:
		return fmt.Sprintf("Projection(%d)", int(p))
	}
}

// ParseProjection maps a CLI spelling, "stored" or "seeded", onto a
// projection mode.
func ParseProjection(s string) (Projection, error) {
	switch s {
	case "stored":
		return ProjStored, nil
	case "seeded":
		return ProjSeeded, nil
	default:
		return 0, fmt.Errorf("encoding: unknown projection mode %q (want stored or seeded)", s)
	}
}

// splitmix64 constants: the golden-ratio increment and the two finalizer
// multipliers of the reference implementation. counterRand(base, i) is the
// i'th output of the stream rooted at base, computable in O(1) — the
// property rematerialization depends on.
const sm64Gamma = 0x9E3779B97F4A7C15

// mix64 is the splitmix64 finalizer.
//
//hd:hotpath
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// counterRand returns element i of the splitmix64 stream rooted at base.
//
//hd:hotpath
func counterRand(base, i uint64) uint64 {
	return mix64(base + (i+1)*sm64Gamma)
}

// Stream domain-separation tags: the projection-sign and phase streams of
// one seed must be independent.
const (
	wStreamTag = 0xA3EC647659359ACD
	bStreamTag = 0x144CBEC857BA675D
)

// seededBases derives the two stream roots for a seed.
func seededBases(seed int64) (wBase, bBase uint64) {
	return mix64(uint64(seed) ^ wStreamTag), mix64(uint64(seed) ^ bStreamTag)
}

// toUnit maps a uint64 onto [0,1) with 53 bits of precision, matching the
// resolution of rand.Float64 without its stream coupling.
//
//hd:hotpath
func toUnit(u uint64) float64 {
	return float64(u>>11) / (1 << 53)
}

const twoPi = 2 * math.Pi

// NewSeeded builds a seeded (ProjSeeded) encoder with the DefaultGamma
// bandwidth.
func NewSeeded(inDim, outDim int, kind Kind, seed int64) (*Encoder, error) {
	return NewSeededWithGamma(inDim, outDim, kind, DefaultGamma(inDim), seed)
}

// NewSeededWithGamma builds a seeded encoder with an explicit kernel
// bandwidth. It holds only the two stream roots: the kernels regenerate
// projection rows and phases as they sweep each tile.
func NewSeededWithGamma(inDim, outDim int, kind Kind, gamma float64, seed int64) (*Encoder, error) {
	e, err := newEncoder(inDim, outDim, kind, gamma)
	if err != nil {
		return nil, err
	}
	e.wpr = (inDim + 63) / 64
	e.wBase, e.bBase = seededBases(seed)
	return e, nil
}

// signWord returns the packed Rademacher signs of projection row j for
// feature word t (bit k set means weight +1 for feature t*64+k).
//
//hd:hotpath
func (e *Encoder) signWord(j, t int) uint64 {
	return counterRand(e.wBase, uint64(j)*uint64(e.wpr)+uint64(t))
}

// phaseAt returns the phase offset of output component j from the phase
// counter stream.
//
//hd:hotpath
func (e *Encoder) phaseAt(j int) float64 {
	return twoPi * toUnit(counterRand(e.bBase, uint64(j)))
}

// materializeRowsInto generates rows [lo,hi) of the seeded projection as
// +1/-1 float64 values into out (row-major, len >= (hi-lo)*InDim). The
// kernels call it once per (dimension tile, row block) — blocked
// rematerialization: the regeneration is O(tile) against O(tile x rows)
// of dot-product work. A +-1.0 multiply-add produces exactly the IEEE
// bits of a sign-flipped add, so the regenerated tile needs no kernel of
// its own.
//
//hd:hotpath
func (e *Encoder) materializeRowsInto(lo, hi int, out []float64) {
	const one = 0x3FF0000000000000 // math.Float64bits(1.0)
	for j := lo; j < hi; j++ {
		row := out[(j-lo)*e.InDim : (j-lo+1)*e.InDim]
		for t := 0; t < e.wpr; t++ {
			bits := e.signWord(j, t)
			kEnd := t*64 + 64
			if kEnd > e.InDim {
				kEnd = e.InDim
			}
			// Branchless: a set bit selects +1.0, a clear bit flips the
			// IEEE sign to -1.0. Against 50/50-random sign bits the
			// obvious if/else mispredicts half the time and dominates
			// the regeneration cost.
			for k := t * 64; k < kEnd; k++ {
				row[k] = math.Float64frombits(one | (bits&1^1)<<63)
				bits >>= 1
			}
		}
	}
}

// StateBytes reports the encoder's resident state in bytes: the
// projection matrix, phases, and activation cache of a stored encoder;
// O(1) for a seeded one. This is the number the -exp infer sweep sizes
// encoder memory by.
func (e *Encoder) StateBytes() int {
	const header = 64 // struct scalars
	return header + 8*(len(e.w)+len(e.b)+len(e.halfSinB))
}
