package spanutil

import (
	"math"
	"math/rand"
	"testing"

	"boosthd/internal/hdc"
)

func TestAnalyzeValidation(t *testing.T) {
	if _, err := Analyze([]hdc.Vector{{1, 2}}); err == nil {
		t.Error("expected too-few-classes error")
	}
	if _, err := Analyze([]hdc.Vector{{}, {}}); err == nil {
		t.Error("expected empty-vector error")
	}
	if _, err := Analyze([]hdc.Vector{{1, 2}, {1}}); err == nil {
		t.Error("expected dim mismatch error")
	}
}

func TestOrthogonalClassesMaximizeSP(t *testing.T) {
	// Axis-aligned orthogonal class vectors: rank k, pi_i = 1.
	ortho := []hdc.Vector{
		{1, 0, 0, 0},
		{0, 1, 0, 0},
		{0, 0, 1, 0},
	}
	rep, err := Analyze(ortho)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rank != 3 {
		t.Errorf("rank = %d, want 3", rep.Rank)
	}
	if rep.RankUtilization != 1 {
		t.Errorf("rank utilization = %v, want 1", rep.RankUtilization)
	}
	if math.Abs(rep.MeanAbsCosine) > 1e-12 {
		t.Errorf("mean |cos| = %v, want 0", rep.MeanAbsCosine)
	}
	if math.Abs(rep.SP-0.75) > 1e-12 { // rank/D = 3/4, product of pi = 1
		t.Errorf("SP = %v, want 0.75", rep.SP)
	}
}

func TestAlignedClassesShrinkSP(t *testing.T) {
	aligned := []hdc.Vector{
		{1, 0, 0, 0},
		{1, 1e-9, 0, 0},
		{1, 0, 1e-9, 0},
	}
	alignedRep, err := Analyze(aligned)
	if err != nil {
		t.Fatal(err)
	}
	ortho := []hdc.Vector{
		{1, 0, 0, 0},
		{0, 1, 0, 0},
		{0, 0, 1, 0},
	}
	orthoRep, _ := Analyze(ortho)
	if alignedRep.SP >= orthoRep.SP {
		t.Errorf("aligned classes (%v) must score below orthogonal (%v)",
			alignedRep.SP, orthoRep.SP)
	}
	if alignedRep.MeanAbsCosine < 0.9 {
		t.Errorf("mean |cos| = %v, want ~1", alignedRep.MeanAbsCosine)
	}
	ratio, err := Compare(orthoRep, alignedRep)
	if err != nil {
		t.Fatal(err)
	}
	if ratio <= 1 {
		t.Errorf("orthogonal/aligned SP ratio = %v, want > 1", ratio)
	}
}

func TestRandomHighDimVectorsNearOrthogonal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vs := []hdc.Vector{
		gaussian(4096, rng),
		gaussian(4096, rng),
		gaussian(4096, rng),
	}
	rep, err := Analyze(vs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rank != 3 {
		t.Errorf("rank = %d, want 3", rep.Rank)
	}
	if rep.MeanAbsCosine > 0.1 {
		t.Errorf("random high-dim vectors should be near-orthogonal: %v", rep.MeanAbsCosine)
	}
	for _, p := range rep.Pi {
		if p < 1 {
			t.Errorf("pi = %v, must be >= 1", p)
		}
	}
}

func TestRankDeficiencyDetected(t *testing.T) {
	// Two identical directions: rank 2 out of 3 vectors.
	vs := []hdc.Vector{
		{1, 0, 0, 0},
		{2, 0, 0, 0},
		{0, 1, 0, 0},
	}
	rep, err := Analyze(vs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rank != 2 {
		t.Errorf("rank = %d, want 2", rep.Rank)
	}
	if rep.RankUtilization != 2.0/3.0 {
		t.Errorf("rank utilization = %v, want 2/3", rep.RankUtilization)
	}
}

func TestCompareZeroReference(t *testing.T) {
	a := &Report{SP: 1}
	b := &Report{SP: 0}
	if _, err := Compare(a, b); err == nil {
		t.Error("expected zero-reference error")
	}
}

// gaussian returns a hypervector with i.i.d. N(0,1) components.
func gaussian(d int, rng *rand.Rand) hdc.Vector {
	v := make(hdc.Vector, d)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}
