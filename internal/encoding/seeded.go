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
// counter stream, in radians and, from the top 32 bits of the same
// stream word, in units of 2^-32 turn: the two agree to 2^-32 turn.
func (e *Encoder) phaseAt(j int) (float64, uint32) {
	r := counterRand(e.bBase, uint64(j))
	return twoPi * toUnit(r), uint32(r >> 32)
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
	b, bt := make([]float64, D), make([]uint32, D)
	for j := range b {
		b[j], bt[j] = e.phaseAt(j)
	}
	p := e.phasePlane(b, bt)
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
		b, bt := e.phaseAt(j)
		ok := math.Float64bits(p.b[j]) == math.Float64bits(b) && p.bt[j] == bt &&
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
// phases, half sines and phases in turns) under the injector's per-bit
// probability, emulating memory faults in the state every query reads.
// It works copy on write: the flips land in a copy that is swapped in,
// so kernel calls in flight finish on the plane they loaded. A stored
// encoder is left alone. It returns the number of flipped bits.
func (e *Encoder) InjectFaults(inj *faults.Injector) int {
	if e.w != nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	p := e.plane.Load()
	q := &plane{idx: slices.Clone(p.idx), b: slices.Clone(p.b), hsb: slices.Clone(p.hsb), bt: slices.Clone(p.bt)}
	flips := inj.InjectBytes(q.idx) + inj.InjectFloat64(q.b) + inj.InjectFloat64(q.hsb) + inj.InjectUint32(q.bt)
	e.plane.Store(q)
	return flips
}

// lookup holds the seeded kernels' tables: ⌈InDim/8⌉ tables of 256
// entries per row. Entry b of table g is the sum over features
// 8g..8g+7 of +x_k where bit k-8g of b is set and -x_k where it is
// clear. A component's projection is then ⌈InDim/8⌉ table lookups,
// indexed by its plane bytes and summed, instead of InDim multiply-adds.
// The float tables (tabs), held for a block of rows, sum in index order
// within a group and in group order across groups; that order defines
// the seeded encoder's float projection. They depend only on the rows
// and InDim, so every seeded part of a stack reads the same ones. The
// turn tables (turns), held for one row, hold the same sums over t_k,
// the wrapping count of 2^-32 turn of x_k*Gamma/2π, for the sign
// kernel: integer addition is exact, so their order does not matter,
// but they depend on Gamma, so they are built per part and row, and a
// row's 5 KB at InDim=36 stay in L1 while the part's components read
// them.
type lookup struct {
	groups     int
	tabs       []float64 // [row][group][256]; built when groups > 0
	turns      []uint32  // [group][256], zero past turnGroups up to five
	turnGroups int
}

// scratch is one kernel call's pooled state: every part's plane, loaded
// once per call so a call in flight finishes on the planes it loaded,
// and the float tables of the current row block and turn tables of the
// current row.
type scratch struct {
	planes []*plane
	lookup
}

// lookupBytes bounds a lookup block's float tables, so they stay cache
// resident: a block holds as many rows as fit (16 at InDim=36), capped
// at encodeRowBlock and never sized by the request.
const lookupBytes = 160 << 10

// scratchPool recycles kernel scratch across calls: a single-row call
// would otherwise allocate its tables every time.
var scratchPool sync.Pool

// getScratch returns pooled scratch holding the parts' planes, and the
// rows per block. Seeded parts read float tables, except the
// trigonometric parts of a sign-bit call (bits), which read one row's
// turn tables, padded with zero tables to at least five. A stack that
// needs no float tables sweeps all n rows per block; otherwise a block
// is a lookup block, sized for n rows at most.
func (s Stack) getScratch(n int, bits bool) (*scratch, int) {
	sc, _ := scratchPool.Get().(*scratch)
	if sc == nil {
		sc = new(scratch)
	}
	floats, turns := false, false
	for _, pt := range s {
		sc.planes = append(sc.planes, pt.Enc.plane.Load())
		if pt.Enc.w == nil {
			t := bits && pt.Enc.Kind != Linear
			floats, turns = floats || !t, turns || t
		}
	}
	groups := (s[0].Enc.InDim + 7) / 8
	if turns {
		size := max(groups, 5) * 256
		if cap(sc.turns) < size {
			sc.turns = make([]uint32, size)
		}
		sc.turns, sc.turnGroups = sc.turns[:size], groups
		clear(sc.turns[groups*256:])
	}
	if !floats {
		sc.groups = 0
		return sc, n
	}
	rows := max(min(lookupBytes/(groups*256*8), encodeRowBlock, n), 1)
	sc.groups = groups
	if cap(sc.tabs) < rows*groups*256 {
		sc.tabs = make([]float64, rows*groups*256)
	}
	sc.tabs = sc.tabs[:rows*groups*256]
	return sc, rows
}

// putScratch returns scratch to the pool without its plane references,
// so a pooled scratch never keeps a replaced plane alive.
func putScratch(sc *scratch) {
	clear(sc.planes)
	sc.planes = sc.planes[:0]
	scratchPool.Put(sc)
}

// buildTables fills the tables of rows xs, at most one lookup block; with
// no groups it does nothing. Each table doubles feature by feature:
// after feature k, entries b < 2^(k+1) hold the signed sums over the
// group's first k+1 features, each accumulated in index order. Starting
// from ±x rather than 0 + ±x can only turn a +0 entry into -0, which
// sumTables' +0 start absorbs.
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

// buildTurns fills the turn tables of row x for bandwidth gamma; the
// zero tables that pad them to five stay as getScratch cleared them.
// Each feature becomes t = toTurns(x*gamma/2π) once. Entry 16h+l of a
// group's table is then lo[l] + hi[h], where lo and hi hold the signed
// wrapping sums of ±t over the group's first four features and over the
// rest, each built by doubling as buildTables does: 256 adds per group
// instead of a doubling pass over the whole table. A short group leaves
// the tail of lo or hi at 0, so it fills entries its index bytes never
// select.
//
//hd:hotpath
func (lk *lookup) buildTurns(x []float64, gamma float64) {
	c := gamma / twoPi
	for g := 0; g < lk.turnGroups; g++ {
		grp := x[8*g : min(8*g+8, len(x))]
		var lo, hi [16]uint32
		halfTable(&lo, grp[:min(4, len(grp))], c)
		if len(grp) > 4 {
			halfTable(&hi, grp[4:], c)
		}
		tab := (*[256]uint32)(lk.turns[g*256:])
		for h := range hi {
			hv, row := hi[h], (*[16]uint32)(tab[16*h:])
			for l := 0; l < 16; l += 4 {
				row[l], row[l+1], row[l+2], row[l+3] = lo[l]+hv, lo[l+1]+hv, lo[l+2]+hv, lo[l+3]+hv
			}
		}
	}
}

// halfTable fills the first 2^len(grp) entries of tab with the signed
// wrapping sums of the turns of grp, up to four features, by doubling.
//
//hd:hotpath
func halfTable(tab *[16]uint32, grp []float64, c float64) {
	t := toTurns(grp[0] * c)
	tab[0], tab[1] = -t, t
	n := 2
	for _, v := range grp[1:] {
		t := toTurns(v * c)
		for b := 0; b < n; b++ {
			s := tab[b]
			tab[b], tab[b+n] = s-t, s+t
		}
		n *= 2
	}
}

// signTurns packs the sign bits of one row's tile of a trigonometric
// part into d, word c holding components 64c..64c+63: a component's
// phase u is the wrapping sum over groups g of turn table g's entry
// ix[g*stride+t], where ix is the plane's index bytes from the tile's
// first component on and stride the plane's row length, OutDim, and its
// bit is turnWord's, under mask (see sinMask). Integer addition is exact
// and associative, so the sum needs no fixed order. Up to five groups
// (InDim <= 40) it sums and packs in one pass, with no store of u; each
// of the five past the last group reads the last group's index bytes
// against a zero table. Wider rows sum a group per pass into u first.
//
//hd:hotpath
func (lk *lookup) signTurns(ix []uint8, stride int, b []uint32, d []uint64, mask uint32) {
	n, G := len(b), lk.turnGroups
	if G > 5 {
		var u [encodeDimBlock]uint32
		for g := 0; g < G; g++ {
			tb, ig := (*[256]uint32)(lk.turns[g*256:]), ix[g*stride:][:n]
			for t, i := range ig {
				u[t] += tb[i]
			}
		}
		for c := 0; c*64 < n; c++ {
			lo, hi := c*64, min(c*64+64, n)
			d[c] = turnWord(u[lo:hi], b[lo:hi], mask)
		}
		return
	}
	var rows [5][]uint8
	for g := range rows {
		rows[g] = ix[min(g, G-1)*stride:][:n]
	}
	tb := (*[5 * 256]uint32)(lk.turns)
	for c := 0; c*64 < n; c++ {
		lo, hi := c*64, min(c*64+64, n)
		bw := b[lo:hi]
		i0, i1, i2, i3, i4 := rows[0][lo:hi], rows[1][lo:hi], rows[2][lo:hi], rows[3][lo:hi], rows[4][lo:hi]
		var word uint64
		for j := len(bw) - 1; j >= 0; j-- {
			u := tb[i0[j]] + tb[256+int(i1[j])] + tb[512+int(i2[j])] + tb[768+int(i3[j])] + tb[1024+int(i4[j])]
			q := u + bw[j]
			word = word<<1 | turnSign(u&mask, q)
		}
		d[c] = word
	}
}

// sumTables writes row r's projections of len(acc) consecutive
// components into acc: acc[t] = sum over groups g, in order, of
// tab_g[ix[g*stride+t]], where ix is the plane's index bytes from the
// first component on and stride the plane's row length, OutDim.
// Group-major, so components are independent and no add chain
// serializes the loop, and in as few passes over acc as it can: the
// first pass writes acc from +0, with no clear, taking one to three
// groups, four, or five (a lone group joined to a four); every later
// pass adds four. Up to five groups (InDim <= 40) that is one pass. The
// sum runs left to right, from +0, in group order. A row's tables are
// contiguous, so a pass reads all of its groups' tables from one base
// at fixed offsets, which keeps its index rows and acc in registers.
//
//hd:hotpath
func (lk *lookup) sumTables(r int, ix []uint8, stride int, acc []float64) {
	n, G := len(acc), lk.groups
	tabs := lk.tabs[r*G*256:]
	w := (G-1)%4 + 1
	if w == 1 && G > 1 {
		w = 5
	}
	i0 := ix[:n]
	switch w {
	case 1:
		tb := (*[256]float64)(tabs)
		for t := range acc {
			acc[t] = 0 + tb[i0[t]]
		}
	case 2:
		tb, i1 := (*[2 * 256]float64)(tabs), ix[stride:][:n]
		for t := range acc {
			acc[t] = 0 + tb[i0[t]] + tb[256+int(i1[t])]
		}
	case 3:
		tb, i1, i2 := (*[3 * 256]float64)(tabs), ix[stride:][:n], ix[2*stride:][:n]
		for t := range acc {
			acc[t] = 0 + tb[i0[t]] + tb[256+int(i1[t])] + tb[512+int(i2[t])]
		}
	case 4:
		tb, i1, i2, i3 := (*[4 * 256]float64)(tabs), ix[stride:][:n], ix[2*stride:][:n], ix[3*stride:][:n]
		for t := range acc {
			acc[t] = 0 + tb[i0[t]] + tb[256+int(i1[t])] + tb[512+int(i2[t])] + tb[768+int(i3[t])]
		}
	default:
		tb, i1, i2, i3 := (*[5 * 256]float64)(tabs), ix[stride:][:n], ix[2*stride:][:n], ix[3*stride:][:n]
		i4 := ix[4*stride:][:n]
		for t := range acc {
			acc[t] = 0 + tb[i0[t]] + tb[256+int(i1[t])] + tb[512+int(i2[t])] + tb[768+int(i3[t])] + tb[1024+int(i4[t])]
		}
	}
	for g := w; g < G; g += 4 {
		tb, i0, i1 := (*[4 * 256]float64)(tabs[g*256:]), ix[g*stride:][:n], ix[(g+1)*stride:][:n]
		i2, i3 := ix[(g+2)*stride:][:n], ix[(g+3)*stride:][:n]
		for t := range acc {
			acc[t] = acc[t] + tb[i0[t]] + tb[256+int(i1[t])] + tb[512+int(i2[t])] + tb[768+int(i3[t])]
		}
	}
}

// StateBytes reports the encoder's resident state in bytes: the struct
// scalars, a stored encoder's projection matrix, and the plane: 8 bytes
// per phase, 4 per phase in turns, 8 per half sine for Nonlinear and, on
// a seeded encoder, one index byte per component and 8-feature group.
// This is the number the -exp infer sweep sizes encoder memory by. A
// seeded checkpoint carries none of it beyond the seed.
func (e *Encoder) StateBytes() int {
	const header = 64 // struct scalars
	p := e.plane.Load()
	return header + 8*(len(e.w)+len(p.b)+len(p.hsb)) + 4*len(p.bt) + len(p.idx)
}
