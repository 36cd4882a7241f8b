package encoding

import (
	"fmt"
	"math"
	"sync"
)

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

// lookup is the seeded kernels' scratch. For a block of rows it holds
// ⌈InDim/8⌉ tables of 256 signed partial sums per row: entry b of table
// g is the index-order sum over features 8g..8g+7 of +x_k where bit k-8g
// of b is set and -x_k where it is clear. For the current tile it holds
// every component's sign words split into per-group byte indexes, so a
// component's projection is ⌈InDim/8⌉ table lookups, summed in group
// order, instead of InDim multiply-adds. That order defines the seeded
// encoder's projection.
type lookup struct {
	groups int
	tabs   []float64 // [row][group][256]
	idx    []uint8   // [group][encodeDimBlock], eight groups per sign word
}

// lookupBytes bounds a lookup block's tables, so they stay cache
// resident: a block holds as many rows as fit (16 at InDim=36), capped
// at encodeRowBlock and never sized by the request.
const lookupBytes = 160 << 10

// lookupPool recycles lookup scratch across kernel calls: a single-row
// call would otherwise allocate its tables and indexes every time.
var lookupPool sync.Pool

// getLookup returns nil and n on a stored encoder, whose kernels sweep
// all n rows per tile. On a seeded encoder it returns pooled lookup
// scratch and the rows per lookup block, sized for n rows at most.
func (e *Encoder) getLookup(n int) (*lookup, int) {
	if e.w != nil {
		return nil, n
	}
	groups := (e.InDim + 7) / 8
	rows := max(min(lookupBytes/(groups*256*8), encodeRowBlock, n), 1)
	lk, _ := lookupPool.Get().(*lookup)
	if lk == nil {
		lk = new(lookup)
	}
	lk.groups = groups
	if cap(lk.tabs) < rows*groups*256 {
		lk.tabs = make([]float64, rows*groups*256)
	}
	if cap(lk.idx) < 8*e.wpr*encodeDimBlock {
		lk.idx = make([]uint8, 8*e.wpr*encodeDimBlock)
	}
	lk.tabs, lk.idx = lk.tabs[:rows*groups*256], lk.idx[:8*e.wpr*encodeDimBlock]
	return lk, rows
}

func putLookup(lk *lookup) { lookupPool.Put(lk) }

// buildTables fills the tables of rows xs, at most one lookup block. Each
// table doubles feature by feature: after feature k, entries b < 2^(k+1)
// hold the signed sums over the group's first k+1 features, each
// accumulated in index order. Starting from ±x rather than 0 + ±x can
// only turn a +0 entry into -0, which sumTables' +0 start absorbs.
//
//hd:hotpath
func (lk *lookup) buildTables(xs [][]float64) {
	for r, x := range xs {
		for g := 0; g < lk.groups; g++ {
			tab := (*[256]float64)(lk.tabs[(r*lk.groups+g)*256:])
			grp := x[8*g : min(8*g+8, len(x))]
			tab[0], tab[1] = -grp[0], grp[0]
			n := 2
			for _, v := range grp[1:] {
				lo, hi := tab[:n], tab[n:2*n]
				for b, s := range lo {
					lo[b], hi[b] = s-v, s+v
				}
				n *= 2
			}
		}
	}
}

// indexTile generates the sign words of tile components [j0,j1) once for
// every row of the block and splits each into its per-group byte
// indexes: idx[g*encodeDimBlock+t], byte g%8 of word g/8 of component
// j0+t with its bits past InDim cleared, indexes table g. A word always
// fills eight index rows; those past the last group are never read.
//
//hd:hotpath
func (lk *lookup) indexTile(e *Encoder, j0, j1 int) {
	n := j1 - j0
	for w := 0; w < e.wpr; w++ {
		mask := ^uint64(0)
		if rem := e.InDim - 64*w; rem < 64 {
			mask = 1<<uint(rem) - 1
		}
		ix := lk.idx[8*w*encodeDimBlock:]
		i0, i1, i2, i3 := ix[:n], ix[encodeDimBlock:][:n], ix[2*encodeDimBlock:][:n], ix[3*encodeDimBlock:][:n]
		i4, i5, i6, i7 := ix[4*encodeDimBlock:][:n], ix[5*encodeDimBlock:][:n], ix[6*encodeDimBlock:][:n], ix[7*encodeDimBlock:][:n]
		for t := range i0 {
			bits := e.signWord(j0+t, w) & mask
			i0[t], i1[t], i2[t], i3[t] = uint8(bits), uint8(bits>>8), uint8(bits>>16), uint8(bits>>24)
			i4[t], i5[t], i6[t], i7[t] = uint8(bits>>32), uint8(bits>>40), uint8(bits>>48), uint8(bits>>56)
		}
	}
}

// sumTables writes row r's projections of the current tile's
// components into acc: acc[t] = sum over groups g, in order, of
// tab_g[idx_g[t]]. Group-major, so components are independent and no
// add chain serializes the loop.
//
//hd:hotpath
func (lk *lookup) sumTables(r int, acc []float64) {
	clear(acc)
	for g := 0; g < lk.groups; g++ {
		tab := (*[256]float64)(lk.tabs[(r*lk.groups+g)*256:])
		ix := lk.idx[g*encodeDimBlock:][:len(acc)]
		for t, i := range ix {
			acc[t] += tab[i]
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
