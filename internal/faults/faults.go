// Package faults implements the bit-flip error model of the paper's
// robustness study (Figure 8): every stored model bit flips independently
// with probability p_b, emulating memory faults in wearable-class
// hardware. Parameters are treated as IEEE-754 float32 words (the storage
// format of deployed models); flips hit sign, exponent, or mantissa bits
// uniformly, so most flips are benign while occasional exponent hits
// produce the catastrophic outliers that separate robust models from
// fragile ones.
package faults

import (
	"fmt"
	"math"
	"math/rand"
)

// Injector flips bits in model memories with a fixed per-bit probability.
type Injector struct {
	Pb  float64    // per-bit flip probability
	Rng *rand.Rand // randomness source (required)
}

// NewInjector validates the flip probability and wraps the rng.
func NewInjector(pb float64, rng *rand.Rand) (*Injector, error) {
	if pb < 0 || pb > 1 {
		return nil, fmt.Errorf("faults: p_b %v outside [0,1]", pb)
	}
	if rng == nil {
		return nil, fmt.Errorf("faults: rng required")
	}
	return &Injector{Pb: pb, Rng: rng}, nil
}

// geometricSkip returns the number of non-flipped bits before the next
// flip under per-bit probability p, sampled as floor(ln(U)/ln(1-p)).
// Skip-sampling makes tiny p_b sweeps over millions of bits cheap.
func geometricSkip(p float64, rng *rand.Rand) int {
	if p >= 1 {
		return 0
	}
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	return int(math.Floor(math.Log(u) / math.Log(1-p)))
}

// InjectFloat32 flips bits of data interpreted as float32 storage: each
// value is rounded to float32, bit-flipped, and written back. It returns
// the number of flipped bits.
func (in *Injector) InjectFloat32(data []float64) int {
	if in.Pb <= 0 || len(data) == 0 {
		return 0
	}
	totalBits := len(data) * 32
	flips := 0
	pos := geometricSkip(in.Pb, in.Rng)
	for pos < totalBits {
		idx, bit := pos/32, uint(pos%32)
		word := math.Float32bits(float32(data[idx]))
		word ^= 1 << bit
		data[idx] = float64(math.Float32frombits(word))
		flips++
		pos += 1 + geometricSkip(in.Pb, in.Rng)
	}
	return flips
}

// InjectFloat64 flips bits of data in its native float64 representation.
// It returns the number of flipped bits.
func (in *Injector) InjectFloat64(data []float64) int {
	if in.Pb <= 0 || len(data) == 0 {
		return 0
	}
	totalBits := len(data) * 64
	flips := 0
	pos := geometricSkip(in.Pb, in.Rng)
	for pos < totalBits {
		idx, bit := pos/64, uint(pos%64)
		word := math.Float64bits(data[idx])
		word ^= 1 << bit
		data[idx] = math.Float64frombits(word)
		flips++
		pos += 1 + geometricSkip(in.Pb, in.Rng)
	}
	return flips
}

// InjectBytes flips bits of byte storage, such as a seeded encoder's
// index plane. It returns the number of flipped bits.
func (in *Injector) InjectBytes(data []uint8) int { return injectUints(in, data, 8) }

// InjectUint32 flips bits of 32-bit word storage, such as a seeded
// encoder's phases in turns. It returns the number of flipped bits.
func (in *Injector) InjectUint32(data []uint32) int { return injectUints(in, data, 32) }

// injectUints flips bits of width-bit unsigned storage.
func injectUints[T uint8 | uint32](in *Injector, data []T, width int) int {
	if in.Pb <= 0 || len(data) == 0 {
		return 0
	}
	totalBits := len(data) * width
	flips := 0
	pos := geometricSkip(in.Pb, in.Rng)
	for pos < totalBits {
		data[pos/width] ^= T(1) << uint(pos%width)
		flips++
		pos += 1 + geometricSkip(in.Pb, in.Rng)
	}
	return flips
}

// InjectWords flips bits of packed 64-bit storage planes — the binary
// backend's sign and confidence-mask memories — treating the given
// slices as one contiguous bit array so the geometric skip amortizes
// across planes. Word-granular storage is exactly what wearable-class
// accelerators keep the quantized model in, so this is the in-place
// analogue of InjectFloat32 for the packed representation. It returns
// the number of flipped bits.
func (in *Injector) InjectWords(planes ...[]uint64) int {
	if in.Pb <= 0 {
		return 0
	}
	totalBits := 0
	for _, p := range planes {
		totalBits += len(p) * 64
	}
	if totalBits == 0 {
		return 0
	}
	flips := 0
	pos := geometricSkip(in.Pb, in.Rng)
	for pos < totalBits {
		rem := pos
		for _, p := range planes {
			bits := len(p) * 64
			if rem < bits {
				p[rem/64] ^= 1 << uint(rem%64)
				break
			}
			rem -= bits
		}
		flips++
		pos += 1 + geometricSkip(in.Pb, in.Rng)
	}
	return flips
}

// InjectAll32 applies InjectFloat32 to every slice, returning total flips.
func (in *Injector) InjectAll32(slices ...[]float64) int {
	flips := 0
	for _, s := range slices {
		flips += in.InjectFloat32(s)
	}
	return flips
}
