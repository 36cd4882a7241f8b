package encoding

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"boosthd/internal/faults"
)

// Projection selects where an encoder's random projection lives.
//
// A stored encoder (ProjStored) materializes an OutDim x InDim float64
// matrix drawn from math/rand — at paper scale (D=10000, F=36) that is
// ~2.9 MB of state swept once per encoded row block, and it dominates both
// encoder memory and cache traffic. A seeded encoder (ProjSeeded) replaces
// the Gaussian matrix with Rademacher (+1/-1) rows produced by a
// counter-based splitmix64 generator keyed on (seed, row, feature-word):
// any projection word is computable in O(1) from the seed alone. The
// encoder keeps the sign words in its plane as one byte per component
// and 8-feature group (about 0.2 MB with phases at paper scale), and the
// checkpoint carries none of it: the plane is rebuilt, and checked, from
// the two stream roots.
type Projection int

const (
	// ProjStored is the materialized Gaussian projection drawn
	// sequentially from math/rand. It is the zero value, so existing
	// checkpoints rebuild the exact encoder they were trained with.
	ProjStored Projection = 0
	// ProjSeeded derives projection signs and phases from the splitmix64
	// counter streams: a checkpoint holds only the seed, and the resident
	// plane is rebuilt from it. Its value is fixed by the checkpoint wire
	// format; value 1 belonged to a retired mode that materialized the
	// same rows as float64.
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
// bandwidth. It derives the two stream roots from seed and builds its
// plane from them.
func NewSeededWithGamma(inDim, outDim int, kind Kind, gamma float64, seed int64) (*Encoder, error) {
	e, err := newEncoder(inDim, outDim, kind, gamma)
	if err != nil {
		return nil, err
	}
	e.wpr = (inDim + 63) / 64
	e.wBase, e.bBase = seededBases(seed)
	e.plane.Store(e.newPlane())
	return e, nil
}

// signWord returns the packed Rademacher signs of projection row j for
// feature word t (bit k set means weight +1 for feature t*64+k).
func (e *Encoder) signWord(j, t int) uint64 {
	return counterRand(e.wBase, uint64(j)*uint64(e.wpr)+uint64(t))
}

// phaseAt returns the phase offset of output component j from the phase
// counter stream.
func (e *Encoder) phaseAt(j int) float64 {
	return twoPi * toUnit(counterRand(e.bBase, uint64(j)))
}

// indexByte returns the plane's index byte for component j and lookup
// group g: byte g%8 of sign word g/8, with the bits past InDim cleared.
func (e *Encoder) indexByte(j, g int) uint8 {
	v := uint8(e.signWord(j, g/8) >> (8 * uint(g%8)))
	if rem := e.InDim - 8*g; rem < 8 {
		v &= 1<<uint(rem) - 1
	}
	return v
}

// newPlane builds a seeded encoder's plane from its stream roots.
func (e *Encoder) newPlane() *plane {
	D, groups := e.OutDim, (e.InDim+7)/8
	b := make([]float64, D)
	for j := range b {
		b[j] = e.phaseAt(j)
	}
	p := e.phasePlane(b)
	p.idx = make([]uint8, groups*D)
	for g := 0; g < groups; g++ {
		for j := 0; j < D; j++ {
			p.idx[g*D+j] = e.indexByte(j, g)
		}
	}
	return p
}

// Heal checks a seeded encoder's plane against its regeneration from the
// stream roots, value by value and bit for bit, and on any mismatch
// swaps in a freshly built plane; kernel calls in flight finish on the
// plane they loaded. The roots act as the plane's signature, so no
// digest is stored, and an intact plane costs a walk and no allocation.
// Heal returns the output components holding a differing value, in
// order: nil for an intact plane, and always for a stored encoder,
// which has no roots to regenerate from.
func (e *Encoder) Heal() []int {
	if e.w != nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	p := e.plane.Load()
	D, groups := e.OutDim, (e.InDim+7)/8
	var bad []int
	for j := 0; j < D; j++ {
		b := e.phaseAt(j)
		ok := math.Float64bits(p.b[j]) == math.Float64bits(b) &&
			(p.hsb == nil || math.Float64bits(p.hsb[j]) == math.Float64bits(0.5*math.Sin(b)))
		for g := 0; ok && g < groups; g++ {
			ok = p.idx[g*D+j] == e.indexByte(j, g)
		}
		if !ok {
			bad = append(bad, j)
		}
	}
	if bad != nil {
		e.plane.Store(e.newPlane())
	}
	return bad
}

// InjectFaults flips bits of a seeded encoder's plane (index bytes,
// phases and half sines) under the injector's per-bit probability,
// emulating memory faults in the state every query reads. It works copy
// on write: the flips land in a copy that is swapped in, so kernel calls
// in flight finish on the plane they loaded. A stored encoder is left
// alone. It returns the number of flipped bits.
func (e *Encoder) InjectFaults(inj *faults.Injector) int {
	if e.w != nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	p := e.plane.Load()
	q := &plane{idx: slices.Clone(p.idx), b: slices.Clone(p.b), hsb: slices.Clone(p.hsb)}
	flips := inj.InjectBytes(q.idx) + inj.InjectFloat64(q.b) + inj.InjectFloat64(q.hsb)
	e.plane.Store(q)
	return flips
}

// lookup is the seeded kernels' scratch. For a block of rows it holds
// ⌈InDim/8⌉ tables of 256 signed partial sums per row: entry b of table
// g is the index-order sum over features 8g..8g+7 of +x_k where bit k-8g
// of b is set and -x_k where it is clear. A component's projection is
// then ⌈InDim/8⌉ table lookups, indexed by its plane bytes and summed in
// group order, instead of InDim multiply-adds. That order defines the
// seeded encoder's projection.
type lookup struct {
	groups int
	tabs   []float64 // [row][group][256]
}

// lookupBytes bounds a lookup block's tables, so they stay cache
// resident: a block holds as many rows as fit (16 at InDim=36), capped
// at encodeRowBlock and never sized by the request.
const lookupBytes = 160 << 10

// lookupPool recycles lookup scratch across kernel calls: a single-row
// call would otherwise allocate its tables every time.
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
	lk.tabs = lk.tabs[:rows*groups*256]
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

// sumTables writes row r's projections of len(acc) consecutive
// components into acc: acc[t] = sum over groups g, in order, of
// tab_g[ix[g*stride+t]], where ix is the plane's index bytes from the
// first component on and stride the plane's row length, OutDim.
// Group-major, so components are independent and no add chain
// serializes the loop; four groups share a pass, so acc is loaded and
// stored once per four lookups. The sum still runs left to right, from
// +0, in group order.
//
//hd:hotpath
func (lk *lookup) sumTables(r int, ix []uint8, stride int, acc []float64) {
	clear(acc)
	n := len(acc)
	tabs := lk.tabs[r*lk.groups*256:]
	g := 0
	for ; g+4 <= lk.groups; g += 4 {
		t0, t1 := (*[256]float64)(tabs[g*256:]), (*[256]float64)(tabs[(g+1)*256:])
		t2, t3 := (*[256]float64)(tabs[(g+2)*256:]), (*[256]float64)(tabs[(g+3)*256:])
		i0, i1 := ix[g*stride:][:n], ix[(g+1)*stride:][:n]
		i2, i3 := ix[(g+2)*stride:][:n], ix[(g+3)*stride:][:n]
		for t := range acc {
			acc[t] = acc[t] + t0[i0[t]] + t1[i1[t]] + t2[i2[t]] + t3[i3[t]]
		}
	}
	for ; g < lk.groups; g++ {
		tab := (*[256]float64)(tabs[g*256:])
		for t, i := range ix[g*stride:][:n] {
			acc[t] += tab[i]
		}
	}
}

// StateBytes reports the encoder's resident state in bytes: the struct
// scalars, a stored encoder's projection matrix, and the plane: 8 bytes
// per phase, 8 per half sine for Nonlinear and, on a seeded encoder, one
// index byte per component and 8-feature group. This is the number the
// -exp infer sweep sizes encoder memory by. A seeded checkpoint carries
// none of it beyond the seed.
func (e *Encoder) StateBytes() int {
	const header = 64 // struct scalars
	p := e.plane.Load()
	return header + 8*(len(e.w)+len(p.b)+len(p.hsb)) + len(p.idx)
}
