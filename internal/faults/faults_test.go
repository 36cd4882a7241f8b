package faults

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewInjectorValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := NewInjector(-0.1, rng); err == nil {
		t.Error("expected pb error")
	}
	if _, err := NewInjector(1.1, rng); err == nil {
		t.Error("expected pb error")
	}
	if _, err := NewInjector(0.5, nil); err == nil {
		t.Error("expected rng error")
	}
}

func TestZeroProbabilityFlipsNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	in, err := NewInjector(0, rng)
	if err != nil {
		t.Fatal(err)
	}
	data := []float64{1, 2, 3}
	if n := in.InjectFloat32(data); n != 0 {
		t.Errorf("flips = %d, want 0", n)
	}
	if data[0] != 1 || data[1] != 2 || data[2] != 3 {
		t.Error("data modified at pb=0")
	}
}

func TestFlipCountNearExpectation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pb := 1e-3
	in, _ := NewInjector(pb, rng)
	n := 10000
	data := make([]float64, n)
	for i := range data {
		data[i] = 1.0
	}
	flips := in.InjectFloat32(data)
	want := ExpectedFlips(n, pb) // 320
	if math.Abs(float64(flips)-want) > 4*math.Sqrt(want) {
		t.Errorf("flips = %d, expected ~%v", flips, want)
	}
}

func TestInjectFloat32ChangesValues(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	in, _ := NewInjector(0.05, rng)
	data := make([]float64, 100)
	for i := range data {
		data[i] = 1.5
	}
	flips := in.InjectFloat32(data)
	if flips == 0 {
		t.Fatal("expected some flips at pb=0.05")
	}
	changed := 0
	for _, v := range data {
		if v != 1.5 {
			changed++
		}
	}
	if changed == 0 {
		t.Error("flips reported but no value changed")
	}
}

func TestInjectFloat64RoundTripExact(t *testing.T) {
	// Flipping the same bit twice restores the exact float64 value.
	rng := rand.New(rand.NewSource(5))
	_ = rng
	v := 3.14159
	word := math.Float64bits(v)
	word ^= 1 << 17
	word ^= 1 << 17
	if math.Float64frombits(word) != v {
		t.Error("double flip must restore the value")
	}
}

func TestInjectFloat64(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	in, _ := NewInjector(0.02, rng)
	data := make([]float64, 200)
	for i := range data {
		data[i] = -2.25
	}
	if flips := in.InjectFloat64(data); flips == 0 {
		t.Fatal("expected flips")
	}
}

func TestInjectAll32(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	in, _ := NewInjector(0.05, rng)
	a := make([]float64, 50)
	b := make([]float64, 50)
	for i := range a {
		a[i], b[i] = 1, 1
	}
	total := in.InjectAll32(a, b)
	if total == 0 {
		t.Error("expected flips across slices")
	}
	if n := in.InjectAll32(); n != 0 {
		t.Error("no slices should mean no flips")
	}
}

func TestMantissaFlipIsSmallPerturbation(t *testing.T) {
	// Flipping a low mantissa bit of a float32 perturbs the value only
	// slightly — the common, benign fault case.
	v := float32(1.0)
	word := math.Float32bits(v) ^ 1 // lowest mantissa bit
	got := math.Float32frombits(word)
	if math.Abs(float64(got-v)) > 1e-6 {
		t.Errorf("low mantissa flip changed 1.0 to %v", got)
	}
	// Flipping the top exponent bit is catastrophic.
	word = math.Float32bits(v) ^ (1 << 30)
	if cat := math.Float32frombits(word); math.Abs(float64(cat)) < 1e10 {
		t.Errorf("exponent flip should be catastrophic, got %v", cat)
	}
}

func TestGeometricSkipDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	p := 0.25
	var sum float64
	trials := 20000
	for i := 0; i < trials; i++ {
		sum += float64(geometricSkip(p, rng))
	}
	mean := sum / float64(trials)
	want := (1 - p) / p // mean of geometric(# failures before success)
	if math.Abs(mean-want) > 0.1 {
		t.Errorf("geometric mean = %v, want ~%v", mean, want)
	}
}

// Property: flip count is always within [0, totalBits] and data length is
// never altered.
func TestInjectBoundsQuick(t *testing.T) {
	f := func(seed int64, pbRaw uint8, nRaw uint8) bool {
		n := int(nRaw)%64 + 1
		pb := float64(pbRaw) / 255.0
		in, err := NewInjector(pb, rand.New(rand.NewSource(seed)))
		if err != nil {
			return false
		}
		data := make([]float64, n)
		for i := range data {
			data[i] = float64(i)
		}
		flips := in.InjectFloat32(data)
		return flips >= 0 && flips <= n*32 && len(data) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestInjectWordsFlipCount: the geometric skip over concatenated planes
// must produce ~totalBits*pb flips, each landing inside a plane word.
func TestInjectWordsFlipCount(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	in, err := NewInjector(1e-3, rng)
	if err != nil {
		t.Fatal(err)
	}
	a := make([]uint64, 300)
	b := make([]uint64, 500)
	totalBits := (len(a) + len(b)) * 64
	const trials = 200
	flips := 0
	for i := 0; i < trials; i++ {
		flips += in.InjectWords(a, b)
	}
	mean := float64(flips) / trials
	want := float64(totalBits) * in.Pb
	if math.Abs(mean-want) > 0.25*want {
		t.Errorf("mean flips %v, want ~%v", mean, want)
	}
}

// TestInjectWordsMutatesExactly: the number of set-bit differences after
// injection equals the reported flip count (every flip lands, none
// double-counts) across both planes.
func TestInjectWordsMutatesExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	in, err := NewInjector(5e-3, rng)
	if err != nil {
		t.Fatal(err)
	}
	planes := [][]uint64{make([]uint64, 128), make([]uint64, 64), make([]uint64, 1)}
	orig := make([][]uint64, len(planes))
	for i, p := range planes {
		for j := range p {
			p[j] = rng.Uint64()
		}
		orig[i] = append([]uint64(nil), p...)
	}
	flips := in.InjectWords(planes...)
	if flips == 0 {
		t.Fatal("expected at least one flip at pb=5e-3 over 12k bits")
	}
	diff := 0
	for i, p := range planes {
		for j := range p {
			diff += bits.OnesCount64(p[j] ^ orig[i][j])
		}
	}
	if diff != flips {
		t.Errorf("reported %d flips, observed %d differing bits", flips, diff)
	}
}

// TestInjectWordsEdgeCases: zero probability and empty planes are no-ops.
func TestInjectWordsEdgeCases(t *testing.T) {
	in, err := NewInjector(0, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	p := []uint64{42}
	if n := in.InjectWords(p); n != 0 || p[0] != 42 {
		t.Errorf("pb=0 injected %d flips", n)
	}
	in2, err := NewInjector(0.5, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if n := in2.InjectWords(); n != 0 {
		t.Errorf("no planes injected %d flips", n)
	}
	if n := in2.InjectWords(nil, []uint64{}); n != 0 {
		t.Errorf("empty planes injected %d flips", n)
	}
}

// TestInjectUint32FlipsExactly: the returned count equals the number of
// bits that differ afterwards, for byte and 32-bit word storage, and
// the counts sit near pb times the bits held.
func TestInjectUint32FlipsExactly(t *testing.T) {
	in, err := NewInjector(0.01, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	words := make([]uint32, 4000)
	flips, diff := in.InjectUint32(words), 0
	for _, w := range words {
		diff += bits.OnesCount32(w)
	}
	bytes := make([]uint8, 16000)
	bflips, bdiff := in.InjectBytes(bytes), 0
	for _, b := range bytes {
		bdiff += bits.OnesCount8(b)
	}
	if flips != diff || bflips != bdiff {
		t.Fatalf("uint32: %d flips, %d bits differ; bytes: %d flips, %d bits differ", flips, diff, bflips, bdiff)
	}
	if want := 0.01 * 4000 * 32; math.Abs(float64(flips)-want) > 0.2*want {
		t.Fatalf("uint32: %d flips, want about %v", flips, want)
	}
}

// ExpectedFlips returns the expected number of bit flips for n float32
// parameters under probability pb.
func ExpectedFlips(n int, pb float64) float64 { return float64(n) * 32 * pb }
