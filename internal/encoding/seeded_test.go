package encoding

import (
	"math"
	"math/rand"
	"testing"

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
// the slow way, sharing no kernel code: an index-order dot against row j
// of the on-demand ProjectionMatrix m, scaled by Gamma.
func seededReference(e *Encoder, m, x []float64, j int) (p, b float64) {
	var s float64
	for k, xv := range x {
		s += m[j*e.InDim+k] * xv
	}
	return s * e.Gamma, e.phaseAt(j)
}

// TestSeededModesBitIdenticalFloat is the seeded encoder's core contract:
// the blocked batch kernel and the single-row path, regenerating their
// projection tiles in flight, must produce IEEE-bit-identical float
// encodings to a reference built from ProjectionMatrix(). Geometry
// deliberately includes feature widths that are not multiples of 64
// (partial sign words) and output dims that are not multiples of the dim
// block.
func TestSeededModesBitIdenticalFloat(t *testing.T) {
	for _, kind := range []Kind{Nonlinear, RFF, Linear} {
		for _, geom := range []struct{ in, out int }{{36, 1000}, {7, 130}, {64, 512}, {100, 333}} {
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
					want := p
					switch kind {
					case Nonlinear:
						want = 0.5*math.Sin(2*p+b) - 0.5*math.Sin(b)
					case RFF:
						want = math.Cos(p + b)
					}
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
// the same reference: packed bits from the 4-row blocked body, the one-row
// body and the single-row entry point must all match, including
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
				batch[i] = hdc.NewBitVector(width)
			}
			if err := e.EncodeBitsRangeBatch(xs, rng.lo, rng.hi, batch); err != nil {
				t.Fatal(err)
			}
			one := hdc.NewBitVector(width)
			if err := e.EncodeBitsRange(xs[0], rng.lo, rng.hi, one); err != nil {
				t.Fatal(err)
			}
			for i, x := range xs {
				for j := rng.lo; j < rng.hi; j++ {
					want := e.signBit(seededReference(e, m, x, j))
					if batch[i].Get(j-rng.lo) != want {
						t.Fatalf("kind=%v range=[%d,%d): row %d comp %d: batch bit differs from reference",
							kind, rng.lo, rng.hi, i, j)
					}
					if i == 0 && one.Get(j-rng.lo) != want {
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

// TestSeededStateShrink pins the property the seeded mode exists for: at
// paper scale its state is at least 100x smaller than a stored
// projection's.
func TestSeededStateShrink(t *testing.T) {
	stored, err := New(36, 10000, Nonlinear, 1)
	if err != nil {
		t.Fatal(err)
	}
	seeded, err := NewSeeded(36, 10000, Nonlinear, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := float64(stored.StateBytes()) / float64(seeded.StateBytes()); ratio < 100 {
		t.Fatalf("state shrink %.1fx < 100x (stored=%d seeded=%d)", ratio, stored.StateBytes(), seeded.StateBytes())
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
