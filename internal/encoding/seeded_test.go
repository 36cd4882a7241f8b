package encoding

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"boosthd/internal/faults"
	"boosthd/internal/hdc"
)

// seededTestRows draws deterministic standardized-looking feature rows.
func seededTestRows(seed int64, n, features int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	xs := make([][]float64, n)
	for i := range xs {
		row := make([]float64, features)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		xs[i] = row
	}
	return xs
}

// seededReference computes component j of x's projection and its phase
// the slow way, sharing no kernel code: the table-order sum against row j
// of the on-demand ProjectionMatrix m — each 8-feature group summed in
// index order, the group sums added in group order — scaled by Gamma.
func seededReference(e *Encoder, m, x []float64, j int) (p, b float64) {
	var s float64
	for g := 0; g < len(x); g += 8 {
		var part float64
		for k := g; k < min(g+8, len(x)); k++ {
			part += m[j*e.InDim+k] * x[k]
		}
		s += part
	}
	b, _ = e.phaseAt(j)
	return s * e.Gamma, b
}

// indexOrderReference is the seeded projection as it was defined before
// the lookup kernels: one dot in feature index order.
func indexOrderReference(e *Encoder, m, x []float64, j int) (p, b float64) {
	var s float64
	for k, xv := range x {
		s += m[j*e.InDim+k] * xv
	}
	b, _ = e.phaseAt(j)
	return s * e.Gamma, b
}

// activation is the float encoding of projection p under phase b.
func activation(kind Kind, p, b float64) float64 {
	switch kind {
	case Nonlinear:
		return 0.5*math.Sin(2*p+b) - 0.5*math.Sin(b)
	case RFF:
		return math.Cos(p + b)
	}
	return p
}

// TestSeededModesBitIdenticalFloat is the seeded encoder's core contract:
// the blocked batch kernel and the single-row path, regenerating their
// sign words in flight and summing table lookups, must produce
// IEEE-bit-identical float encodings to the table-order reference built
// from ProjectionMatrix(). Geometry deliberately includes feature widths
// that are not multiples of 64 (partial sign words) or of 8 (partial
// lookup groups, down to a single feature), widths spanning two and
// three sign words, and output dims that are not multiples of the dim
// block.
func TestSeededModesBitIdenticalFloat(t *testing.T) {
	for _, kind := range []Kind{Nonlinear, RFF, Linear} {
		for _, geom := range []struct{ in, out int }{{36, 1000}, {7, 130}, {64, 512}, {100, 333}, {1, 40}, {9, 70}, {65, 200}, {129, 130}} {
			e, err := NewSeeded(geom.in, geom.out, kind, 42)
			if err != nil {
				t.Fatal(err)
			}
			m := e.ProjectionMatrix()
			xs := seededTestRows(7, 37, geom.in) // odd row count exercises the one-row body
			flat := make([]float64, len(xs)*geom.out)
			if err := e.EncodeBatchInto(xs, flat, geom.out, 0); err != nil {
				t.Fatal(err)
			}
			single, err := e.Encode(xs[0])
			if err != nil {
				t.Fatal(err)
			}
			for i, x := range xs {
				for j := 0; j < geom.out; j++ {
					p, b := seededReference(e, m, x, j)
					want := activation(kind, p, b)
					if got := flat[i*geom.out+j]; math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("kind=%v in=%d out=%d: row %d comp %d: batch %v, reference %v",
							kind, geom.in, geom.out, i, j, got, want)
					}
					if i == 0 && math.Float64bits(single[j]) != math.Float64bits(want) {
						t.Fatalf("kind=%v in=%d out=%d: comp %d: single-row %v, reference %v",
							kind, geom.in, geom.out, j, single[j], want)
					}
				}
			}
		}
	}
}

// TestSeededModesBitIdenticalBits pins the seeded sign-bit kernel against
// the slow references: the turn-domain sign of the trigonometric kinds
// and the float sign of Linear's table-order projection. Packed bits
// from the batch and single-row entry points must all match, including
// sub-ranges that model BoostHD's per-learner segments.
func TestSeededModesBitIdenticalBits(t *testing.T) {
	for _, kind := range []Kind{Nonlinear, RFF, Linear} {
		e, err := NewSeeded(36, 1000, kind, 99)
		if err != nil {
			t.Fatal(err)
		}
		m := e.ProjectionMatrix()
		xs := seededTestRows(13, 9, 36)
		for _, rng := range []struct{ lo, hi int }{{0, 1000}, {0, 500}, {500, 1000}, {100, 163}} {
			width := rng.hi - rng.lo
			batch := make([]*hdc.BitVector, len(xs))
			for i := range batch {
				batch[i] = newBits(width)
			}
			if err := e.EncodeBitsRangeBatch(xs, rng.lo, rng.hi, batch); err != nil {
				t.Fatal(err)
			}
			one := newBits(width)
			if err := e.EncodeBitsRange(xs[0], rng.lo, rng.hi, one); err != nil {
				t.Fatal(err)
			}
			for i, x := range xs {
				for j := rng.lo; j < rng.hi; j++ {
					_, want := refEncoding(e, m, x, j)
					if bitAt(batch[i], j-rng.lo) != want {
						t.Fatalf("kind=%v range=[%d,%d): row %d comp %d: batch bit differs from reference",
							kind, rng.lo, rng.hi, i, j)
					}
					if i == 0 && bitAt(one, j-rng.lo) != want {
						t.Fatalf("kind=%v range=[%d,%d): comp %d: single-row bit differs from reference",
							kind, rng.lo, rng.hi, j)
					}
				}
			}
		}
	}
}

// TestProjectionMatrixOnDemand: a seeded encoder materializes its +-1
// projection rows on demand, identically on every call, without holding
// the matrix afterwards.
func TestProjectionMatrixOnDemand(t *testing.T) {
	e, err := NewSeeded(36, 400, Nonlinear, 7)
	if err != nil {
		t.Fatal(err)
	}
	stored, err := New(36, 400, Nonlinear, 7)
	if err != nil {
		t.Fatal(err)
	}
	m := e.ProjectionMatrix()
	if len(m) != 400*36 {
		t.Fatalf("projection size %d, want %d", len(m), 400*36)
	}
	for i, v := range m {
		if v != 1 && v != -1 {
			t.Fatalf("seeded projection weight %d is %v, want +/-1", i, v)
		}
	}
	// On-demand generation must not inflate the encoder's resident state.
	if e.StateBytes() >= stored.StateBytes() {
		t.Fatalf("seeded state %d >= stored state %d", e.StateBytes(), stored.StateBytes())
	}
	m2 := e.ProjectionMatrix()
	for i := range m {
		if math.Float64bits(m[i]) != math.Float64bits(m2[i]) {
			t.Fatalf("repeated materialization unstable at %d", i)
		}
	}
}

// TestSeededStateShrink pins the seeded encoder's resident state byte
// for byte: the struct scalars, one plane index byte per component and
// 8-feature group, a phase per component in radians (8 bytes) and in
// turns (4 bytes) and, for Nonlinear, a half sine per component. At paper scale that stays at least 10x under a stored
// projection's.
func TestSeededStateShrink(t *testing.T) {
	for _, kind := range []Kind{Nonlinear, RFF, Linear} {
		for _, geom := range []struct{ in, out int }{{36, 10000}, {1, 333}, {65, 130}} {
			e, err := NewSeeded(geom.in, geom.out, kind, 1)
			if err != nil {
				t.Fatal(err)
			}
			want := 64 + (geom.in+7)/8*geom.out + 8*geom.out + 4*geom.out
			if kind == Nonlinear {
				want += 8 * geom.out
			}
			if got := e.StateBytes(); got != want {
				t.Fatalf("kind=%v in=%d out=%d: StateBytes %d, want %d", kind, geom.in, geom.out, got, want)
			}
		}
	}
	stored, err := New(36, 10000, Nonlinear, 1)
	if err != nil {
		t.Fatal(err)
	}
	seeded, err := NewSeeded(36, 10000, Nonlinear, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := float64(stored.StateBytes()) / float64(seeded.StateBytes()); ratio < 10 {
		t.Fatalf("state shrink %.1fx < 10x (stored=%d seeded=%d)", ratio, stored.StateBytes(), seeded.StateBytes())
	}
}

// TestSeededPlaneMatchesRegeneration: every value of a seeded plane is
// its regeneration from the stream roots. Index byte g of component j is
// byte g%8 of sign word g/8 with the bits of features past InDim
// cleared, the phase is 2π times the 53-bit fraction of the phase
// stream's word j, the phase in turns is that word's top 32 bits, and
// the half sine is 0.5*sin of the phase (Nonlinear only), for feature widths that leave partial groups and
// words and an output width that is not a multiple of 64.
func TestSeededPlaneMatchesRegeneration(t *testing.T) {
	const out = 333
	for _, kind := range []Kind{Nonlinear, RFF, Linear} {
		for _, in := range []int{1, 9, 36, 65, 129} {
			e, err := NewSeeded(in, out, kind, 17)
			if err != nil {
				t.Fatal(err)
			}
			p := e.plane.Load()
			groups := (in + 7) / 8
			if len(p.idx) != groups*out || len(p.b) != out || len(p.bt) != out {
				t.Fatalf("kind=%v in=%d: plane holds %d index bytes, %d phases and %d turns, want %d, %d and %d",
					kind, in, len(p.idx), len(p.b), len(p.bt), groups*out, out, out)
			}
			if (kind == Nonlinear) != (p.hsb != nil) {
				t.Fatalf("kind=%v in=%d: half sines present = %v", kind, in, p.hsb != nil)
			}
			for j := 0; j < out; j++ {
				for g := 0; g < groups; g++ {
					var want uint8
					for bit := 0; bit < 8 && 8*g+bit < in; bit++ {
						k := 8*g + bit
						want |= uint8(e.signWord(j, k/64)>>(k%64)&1) << bit
					}
					if got := p.idx[g*out+j]; got != want {
						t.Fatalf("kind=%v in=%d: index byte group %d comp %d is %#x, want %#x", kind, in, g, j, got, want)
					}
				}
				r := counterRand(e.bBase, uint64(j))
				b := twoPi * toUnit(r)
				if math.Float64bits(p.b[j]) != math.Float64bits(b) {
					t.Fatalf("kind=%v in=%d: phase %d is %v, want %v", kind, in, j, p.b[j], b)
				}
				if p.bt[j] != uint32(r>>32) {
					t.Fatalf("kind=%v in=%d: phase %d in turns is %#x, want %#x", kind, in, j, p.bt[j], r>>32)
				}
				if p.hsb != nil && math.Float64bits(p.hsb[j]) != math.Float64bits(0.5*math.Sin(b)) {
					t.Fatalf("kind=%v in=%d: half sine %d is %v, want %v", kind, in, j, p.hsb[j], 0.5*math.Sin(b))
				}
			}
		}
	}
}

// planeDiff lists the components at which two planes differ in any
// value, bit for bit.
func planeDiff(a, b *plane, out int) []int {
	var diff []int
	for j := 0; j < out; j++ {
		same := math.Float64bits(a.b[j]) == math.Float64bits(b.b[j]) && a.bt[j] == b.bt[j] &&
			(a.hsb == nil || math.Float64bits(a.hsb[j]) == math.Float64bits(b.hsb[j]))
		for g := 0; same && g < len(a.idx)/out; g++ {
			same = a.idx[g*out+j] == b.idx[g*out+j]
		}
		if !same {
			diff = append(diff, j)
		}
	}
	return diff
}

// TestSeededPlaneHeal: Heal names exactly the components an injection
// changed, swaps in a plane that encodes bit for bit like the pristine
// one, and then finds nothing. Injection is copy on write, so a plane
// loaded before it stays intact. A stored encoder neither takes faults
// nor reports any.
func TestSeededPlaneHeal(t *testing.T) {
	for _, kind := range []Kind{Nonlinear, RFF, Linear} {
		e, err := NewSeeded(36, 333, kind, 5)
		if err != nil {
			t.Fatal(err)
		}
		xs := seededTestRows(4, 5, 36)
		want := make([]float64, len(xs)*e.OutDim)
		if err := e.EncodeBatchInto(xs, want, e.OutDim, 0); err != nil {
			t.Fatal(err)
		}
		pristine := e.plane.Load()
		inj, err := faults.NewInjector(1e-3, rand.New(rand.NewSource(3)))
		if err != nil {
			t.Fatal(err)
		}
		if flips := e.InjectFaults(inj); flips == 0 {
			t.Fatalf("kind=%v: injection flipped nothing", kind)
		}
		if planeDiff(pristine, e.newPlane(), e.OutDim) != nil {
			t.Fatalf("kind=%v: injection wrote into the plane it replaced", kind)
		}
		hit := planeDiff(pristine, e.plane.Load(), e.OutDim)
		if hit == nil {
			t.Fatalf("kind=%v: injected plane equals the pristine one", kind)
		}
		if got := e.Heal(); !slices.Equal(got, hit) {
			t.Fatalf("kind=%v: Heal reported components %v, injection hit %v", kind, got, hit)
		}
		if got := e.Heal(); got != nil {
			t.Fatalf("kind=%v: second Heal reported %v", kind, got)
		}
		got := make([]float64, len(want))
		if err := e.EncodeBatchInto(xs, got, e.OutDim, 0); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("kind=%v: healed encoding differs at %d: %v, want %v", kind, i, got[i], want[i])
			}
		}
	}
	stored, err := New(36, 333, Nonlinear, 5)
	if err != nil {
		t.Fatal(err)
	}
	inj, _ := faults.NewInjector(1e-2, rand.New(rand.NewSource(3)))
	if flips, bad := stored.InjectFaults(inj), stored.Heal(); flips != 0 || bad != nil {
		t.Fatalf("stored encoder took %d flips and reported %v", flips, bad)
	}
}

// TestSeededPlaneHealUnderLoad runs encoders of every entry point, float
// and sign bits, one row and batches, lone encoder and stack, while
// another goroutine injects plane faults and heals. Run it with -race
// -count=10: readers load each plane once per call, so no call sees a
// torn plane, and after the last heal every encoding is bit-identical to
// the pristine one.
func TestSeededPlaneHealUnderLoad(t *testing.T) {
	e, err := NewSeeded(36, 700, Nonlinear, 8)
	if err != nil {
		t.Fatal(err)
	}
	// A stack of e's ranges and two more encoders: a shared encoder's
	// parts and per-part encoders in one call.
	stack := Stack{{e, 0, 300}, {e, 300, 700}}
	encs := []*Encoder{e}
	for i, kind := range []Kind{RFF, Linear} {
		o, err := NewSeeded(36, 200+50*i, kind, int64(20+i))
		if err != nil {
			t.Fatal(err)
		}
		stack, encs = append(stack, Part{o, 0, o.OutDim}), append(encs, o)
	}
	const width = 700 + 200 + 250
	xs := seededTestRows(9, 6, 36)
	encode := func() ([]float64, []*hdc.BitVector) {
		flat := make([]float64, len(xs)*(e.OutDim+width))
		if err := e.EncodeBatchInto(xs, flat, e.OutDim, 0); err != nil {
			t.Error(err)
		}
		if err := e.EncodeInto(xs[0], flat[:e.OutDim]); err != nil {
			t.Error(err)
		}
		sf := flat[len(xs)*e.OutDim:]
		if err := stack.EncodeBatchInto(xs, sf, width, 0); err != nil {
			t.Error(err)
		}
		if err := stack.EncodeInto(xs[2], sf[2*width:3*width]); err != nil {
			t.Error(err)
		}
		bits := make([]*hdc.BitVector, len(xs)*(1+len(stack)))
		for i := range bits {
			bits[i] = newBits(e.OutDim - 35)
		}
		if err := e.EncodeBitsRangeBatch(xs, 35, e.OutDim, bits[:len(xs)]); err != nil {
			t.Error(err)
		}
		if err := e.EncodeBitsRange(xs[1], 35, e.OutDim, bits[1]); err != nil {
			t.Error(err)
		}
		rows := make([][]*hdc.BitVector, len(xs))
		for r := range rows {
			rows[r] = bits[len(xs)+r*len(stack) : len(xs)+(r+1)*len(stack)]
			for i, pt := range stack {
				rows[r][i] = newBits(pt.Hi - pt.Lo)
			}
		}
		if err := stack.EncodeBitsBatch(xs, rows); err != nil {
			t.Error(err)
		}
		if err := stack.EncodeBits(xs[3], rows[3]); err != nil {
			t.Error(err)
		}
		return flat, bits
	}
	wantF, wantB := encode()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					encode()
				}
			}
		}()
	}
	inj, err := faults.NewInjector(2e-4, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 20; round++ {
		for _, enc := range encs {
			enc.InjectFaults(inj)
			if round%3 == 0 {
				enc.Heal()
			}
		}
	}
	for _, enc := range encs {
		enc.Heal()
	}
	close(stop)
	wg.Wait()

	gotF, gotB := encode()
	for i := range wantF {
		if math.Float64bits(gotF[i]) != math.Float64bits(wantF[i]) {
			t.Fatalf("float encoding differs at %d after the last heal", i)
		}
	}
	for i := range wantB {
		if !slices.Equal(gotB[i].Words, wantB[i].Words) {
			t.Fatalf("row %d sign bits differ after the last heal", i)
		}
	}
}

// TestSeededSeedSensitivity: different seeds give different spaces, equal
// seeds give equal spaces — the determinism contract checkpointing relies
// on.
func TestSeededSeedSensitivity(t *testing.T) {
	a, err := NewSeeded(12, 256, Nonlinear, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSeeded(12, 256, Nonlinear, 5)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewSeeded(12, 256, Nonlinear, 6)
	if err != nil {
		t.Fatal(err)
	}
	x := seededTestRows(3, 1, 12)[0]
	ha, _ := a.Encode(x)
	hb, _ := b.Encode(x)
	hc, _ := c.Encode(x)
	same, diff := true, true
	for j := range ha {
		if ha[j] != hb[j] {
			same = false
		}
		if ha[j] != hc[j] {
			diff = false
		}
	}
	if !same {
		t.Fatal("equal seeds produced different encodings")
	}
	if diff {
		t.Fatal("different seeds produced identical encodings")
	}
}

// TestNewSeededRejectsLegacyMode: seeded construction validates its
// inputs, and ParseProjection accepts exactly the two mode names — the
// retired seeded-stored mode and the old aliases fail loudly.
func TestNewSeededRejectsLegacyMode(t *testing.T) {
	if _, err := NewSeededWithGamma(10, 100, Nonlinear, -1, 1); err == nil {
		t.Fatal("NewSeeded accepted negative gamma")
	}
	if _, err := NewSeeded(0, 100, Nonlinear, 1); err == nil {
		t.Fatal("NewSeeded accepted zero input width")
	}
	for _, s := range []string{"", "bogus", "legacy", "seeded-stored", "seeded_stored", "remat", "rematerialized"} {
		if _, err := ParseProjection(s); err == nil {
			t.Fatalf("ParseProjection accepted %q", s)
		}
	}
	for _, p := range []Projection{ProjStored, ProjSeeded} {
		if got, err := ParseProjection(p.String()); err != nil || got != p {
			t.Fatalf("ParseProjection(%q) = %v, %v; want %v", p.String(), got, err, p)
		}
	}
}

// TestSeededLookupMatchesIndexOrderDot bounds what the table order moved:
// on the golden rows of every golden geometry and kind, the lookup
// kernels' float encodings stay within 1e-12 of the index-order dot the
// seeded encoder was defined by before, and not one sign bit differs.
func TestSeededLookupMatchesIndexOrderDot(t *testing.T) {
	var flips, comps int
	var drift float64
	for _, kind := range []Kind{Nonlinear, RFF, Linear} {
		for _, geom := range []struct{ in, out int }{{36, 1000}, {7, 130}, {64, 512}, {100, 333}} {
			e, err := NewSeeded(geom.in, geom.out, kind, 42)
			if err != nil {
				t.Fatal(err)
			}
			m := e.ProjectionMatrix()
			xs := seededTestRows(7, 37, geom.in)
			flat := make([]float64, len(xs)*geom.out)
			if err := e.EncodeBatchInto(xs, flat, geom.out, 0); err != nil {
				t.Fatal(err)
			}
			bits := make([]*hdc.BitVector, len(xs))
			for i := range bits {
				bits[i] = newBits(geom.out)
			}
			if err := e.EncodeBitsRangeBatch(xs, 0, geom.out, bits); err != nil {
				t.Fatal(err)
			}
			for i, x := range xs {
				for j := 0; j < geom.out; j++ {
					p, b := indexOrderReference(e, m, x, j)
					d := math.Abs(flat[i*geom.out+j] - activation(kind, p, b))
					if !(d <= 1e-12) {
						t.Fatalf("kind=%v in=%d out=%d: row %d comp %d drifted %g from the index-order dot",
							kind, geom.in, geom.out, i, j, d)
					}
					drift = max(drift, d)
					if bitAt(bits[i], j) != floatSign(kind, p, b) {
						flips++
					}
					comps++
				}
			}
		}
	}
	if flips != 0 {
		t.Fatalf("%d of %d sign bits differ from the index-order definition", flips, comps)
	}
	t.Logf("%d components: 0 sign flips, max float drift %.3g", comps, drift)
}

// TestSeededBatchMatchesSingleRow: for every batch size from 1 to 9 —
// one-row calls, partial four-row groups and more rows than one group —
// the seeded batch kernels' float encodings and sign bits are
// bit-identical to the single-row entry points, on a one-word and a
// two-word feature width and an unaligned bit range.
func TestSeededBatchMatchesSingleRow(t *testing.T) {
	for _, geom := range []struct{ in, out int }{{36, 1000}, {100, 333}} {
		e, err := NewSeeded(geom.in, geom.out, Nonlinear, 3)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := 35, geom.out-9
		for n := 1; n <= 9; n++ {
			xs := seededTestRows(int64(n), n, geom.in)
			flat := make([]float64, n*geom.out)
			if err := e.EncodeBatchInto(xs, flat, geom.out, 0); err != nil {
				t.Fatal(err)
			}
			bits := make([]*hdc.BitVector, n)
			for i := range bits {
				bits[i] = newBits(hi - lo)
			}
			if err := e.EncodeBitsRangeBatch(xs, lo, hi, bits); err != nil {
				t.Fatal(err)
			}
			for i, x := range xs {
				one, err := e.Encode(x)
				if err != nil {
					t.Fatal(err)
				}
				for j, v := range one {
					if math.Float64bits(v) != math.Float64bits(flat[i*geom.out+j]) {
						t.Fatalf("in=%d rows=%d: row %d comp %d: batch %v, single %v", geom.in, n, i, j, flat[i*geom.out+j], v)
					}
				}
				ob := newBits(hi - lo)
				if err := e.EncodeBitsRange(x, lo, hi, ob); err != nil {
					t.Fatal(err)
				}
				for w, word := range ob.Words {
					if word != bits[i].Words[w] {
						t.Fatalf("in=%d rows=%d: row %d bit word %d: batch %#x, single %#x", geom.in, n, i, w, bits[i].Words[w], word)
					}
				}
			}
		}
	}
}
