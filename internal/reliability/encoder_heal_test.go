package reliability

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"boosthd/internal/boosthd"
	"boosthd/internal/encoding"
	"boosthd/internal/faults"
	"boosthd/internal/infer"
	"boosthd/internal/obs"
	"boosthd/internal/serve"
)

// TestEncoderHealDrill injects faults into the serving model's encoder
// planes and runs one scrub, on both backends, at a light fault rate
// that hits some learners and a heavy one that collapses every float
// learner's canary accuracy. The scrub heals the planes before it signs
// or scores anything: the pass journals exactly one encoder_heal event
// naming the hit learners, and no scrub, quarantine, dim_mask or
// engine_swap event, since class memory is intact. Predictions then
// equal the pre-fault ones.
func TestEncoderHealDrill(t *testing.T) {
	for _, tc := range []struct {
		backend string
		pb      float64
	}{{"float", 2e-5}, {"binary", 2e-5}, {"float", 1e-2}, {"binary", 1e-2}} {
		t.Run(fmt.Sprintf("%s/pb=%g", tc.backend, tc.pb), func(t *testing.T) {
			m, X, y := fixtureProj(t, 640, 4, encoding.ProjSeeded)
			eng := infer.NewEngine(m)
			if tc.backend == "binary" {
				var err error
				if eng, err = infer.NewBinaryEngine(m); err != nil {
					t.Fatal(err)
				}
			}
			srv, err := serve.NewServer(eng, serve.Config{})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			o := obs.NewServing(0, 0, 0)
			srv.SetObs(o)
			journal := o.Journal
			mon, err := New(srv, Config{})
			if err != nil {
				t.Fatal(err)
			}
			if err := mon.SetCanary(X, y); err != nil {
				t.Fatal(err)
			}
			want, err := srv.Engine().PredictBatch(X)
			if err != nil {
				t.Fatal(err)
			}
			baseline, err := srv.Engine().EvaluateLearners(X, y)
			if err != nil {
				t.Fatal(err)
			}

			// A twin loaded from a checkpoint rebuilds identical planes,
			// and an injector on the same stream hits it identically, so
			// its heal names the learners the scrub must report.
			var blob bytes.Buffer
			if err := m.Save(&blob); err != nil {
				t.Fatal(err)
			}
			twin, err := boosthd.Load(&blob)
			if err != nil {
				t.Fatal(err)
			}
			inj, _ := faults.NewInjector(tc.pb, rand.New(rand.NewSource(3)))
			twinInj, _ := faults.NewInjector(tc.pb, rand.New(rand.NewSource(3)))
			flips := 0
			for attempt := 0; attempt < 100 && flips == 0; attempt++ {
				flips = m.InjectEncoderFaults(inj)
				twin.InjectEncoderFaults(twinInj)
			}
			if flips == 0 {
				t.Fatal("injector never flipped a plane bit")
			}
			hit := twin.HealEncoders()
			if len(hit) == 0 {
				t.Fatalf("%d flips hit no learner of the twin", flips)
			}
			if tc.backend == "float" && tc.pb >= 1e-2 {
				// Without the heal first, this pass's canary would
				// quarantine intact class memory.
				acc, err := srv.Engine().EvaluateLearners(X, y)
				if err != nil {
					t.Fatal(err)
				}
				if baseline[0]-acc[0] <= mon.Config().QuarantineDrop {
					t.Fatalf("heavy fault left learner 0 at canary accuracy %v (baseline %v)", acc[0], baseline[0])
				}
			}

			since := journal.Seq()
			rep, err := mon.Scrub()
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(rep.EncoderHealed, hit) {
				t.Fatalf("scrub healed learners %v, injection hit %v", rep.EncoderHealed, hit)
			}
			if len(rep.IntegrityFaults)+len(rep.CanaryFaults)+len(rep.Quarantined)+len(rep.DimMasked) > 0 || rep.Swapped {
				t.Fatalf("scrub blamed class memory for an encoder fault: %+v", rep)
			}
			events := journal.Events(since, 0)
			heals := 0
			for _, e := range events {
				switch e.Type {
				case obs.EvEncoderHeal:
					heals++
					if !slices.Equal(e.Learners, hit) || e.Corr == 0 {
						t.Fatalf("encoder_heal event %+v, want learners %v under the pass's correlation ID", e, hit)
					}
				case obs.EvScrub, obs.EvQuarantine, obs.EvDimMask, obs.EvSwap:
					t.Fatalf("encoder fault journaled %q: %+v", e.Type, events)
				}
			}
			if heals != 1 {
				t.Fatalf("%d encoder_heal events, want 1: %+v", heals, events)
			}
			if got := mon.Status().EncoderHeals; got != uint64(len(hit)) {
				t.Fatalf("status counts %d encoder heals, want %d (the learners healed)", got, len(hit))
			}

			got, err := srv.Engine().PredictBatch(X)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatal("healed model predicts differently from the pre-fault one")
			}
			if rep, err := mon.Scrub(); err != nil || rep.EncoderHealed != nil {
				t.Fatalf("second scrub: %+v, %v", rep, err)
			}
		})
	}
}
