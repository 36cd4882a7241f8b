package reliability

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"boosthd/internal/faults"
	"boosthd/internal/infer"
	"boosthd/internal/obs"
	"boosthd/internal/serve"
)

// drillChaos is the test stand-in for boosthd-serve's -chaos injector:
// word faults into the live packed planes through the engine's locked
// injection path.
type drillChaos struct {
	mu  sync.Mutex
	srv *serve.Server
	rng *rand.Rand
}

func (c *drillChaos) InjectWords(pb float64) (int, error) {
	bin := c.srv.Engine().Binary()
	if bin == nil {
		return 0, fmt.Errorf("%w: float backend", serve.ErrBadInput)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	inj, err := faults.NewInjector(pb, c.rng)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", serve.ErrBadInput, err)
	}
	return bin.InjectWordFaults(inj), nil
}

// TestFaultDrillEventSequence is the end-to-end acceptance drill for
// the event journal: chaos POST /inject over HTTP, a scrub that
// detects and masks, a repair that restores — and GET /events must
// replay the whole incident as a complete, correctly ordered, and
// attributed sequence: inject, then the scrub verdict naming the
// corrupted learners, then their quarantine/dim-mask (sharing the scrub
// pass's correlation ID), then the mask-install engine swap, then the
// repair outcome and unmask (sharing the repair pass's correlation ID),
// then the restore engine swap.
func TestFaultDrillEventSequence(t *testing.T) {
	m, _, _ := fixture(t, 480, 4)
	eng, err := infer.NewBinaryEngine(m)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.NewServer(eng, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	o := obs.NewServing(0, 0, 0)
	srv.SetObs(o)
	mon, err := New(srv, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(serve.NewHandler(srv, serve.HandlerConfig{
		Reliability: mon,
		Chaos:       &drillChaos{srv: srv, rng: rand.New(rand.NewSource(7))},
	}))
	defer ts.Close()

	// Inject through the HTTP drill endpoint until a flip lands.
	flips := 0
	for attempt := 0; attempt < 100 && flips == 0; attempt++ {
		body, _ := json.Marshal(map[string]float64{"pb": 5e-4})
		resp, err := http.Post(ts.URL+"/inject", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var rep struct {
			Flips int `json:"flips"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/inject: %d", resp.StatusCode)
		}
		flips += rep.Flips
	}
	if flips == 0 {
		t.Fatal("chaos injector never flipped a bit")
	}

	srep, err := mon.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if len(srep.Quarantined)+len(srep.DimMasked) == 0 {
		t.Fatalf("scrub missed the injected faults: %+v", srep)
	}
	rrep, err := mon.Repair()
	if err != nil {
		t.Fatal(err)
	}
	if len(rrep.Repaired) == 0 || len(rrep.Failed) != 0 {
		t.Fatalf("repair did not fully restore: %+v", rrep)
	}

	// Replay the incident from GET /events.
	resp, err := http.Get(ts.URL + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var page struct {
		Seq    uint64      `json:"seq"`
		Events []obs.Event `json:"events"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		t.Fatal(err)
	}
	if page.Seq == 0 || len(page.Events) == 0 {
		t.Fatalf("journal empty after drill: %+v", page)
	}
	for i, e := range page.Events {
		if e.Seq == 0 || e.Time.IsZero() {
			t.Fatalf("event %d missing seq/time stamp: %+v", i, e)
		}
		if i > 0 && e.Seq <= page.Events[i-1].Seq {
			t.Fatalf("journal sequence not monotone at %d: %d then %d", i, page.Events[i-1].Seq, e.Seq)
		}
	}
	// The drill's required order, each stage found after the previous.
	idxOf := func(typ string, after int) int {
		for i := after + 1; i < len(page.Events); i++ {
			if page.Events[i].Type == typ {
				return i
			}
		}
		t.Fatalf("no %q event after index %d in %+v", typ, after, page.Events)
		return -1
	}
	iInject := idxOf(obs.EvInject, -1)
	iScrub := idxOf(obs.EvScrub, iInject)
	scrub := page.Events[iScrub]
	if len(scrub.Learners) == 0 {
		t.Fatalf("scrub event carries no learner attribution: %+v", scrub)
	}
	// The mask verdict (quarantine or dim_mask) follows the scrub and
	// shares its pass correlation ID.
	iMask := iScrub + 1
	for iMask < len(page.Events) &&
		page.Events[iMask].Type != obs.EvQuarantine && page.Events[iMask].Type != obs.EvDimMask {
		iMask++
	}
	if iMask == len(page.Events) {
		t.Fatalf("no quarantine/dim_mask event after the scrub verdict: %+v", page.Events)
	}
	mask := page.Events[iMask]
	if mask.Corr != scrub.Corr {
		t.Fatalf("mask event corr %d != scrub pass corr %d", mask.Corr, scrub.Corr)
	}
	if len(mask.Learners) == 0 {
		t.Fatalf("mask event carries no learner attribution: %+v", mask)
	}
	if mask.Type == obs.EvDimMask && len(mask.Segments) == 0 {
		t.Fatalf("dim_mask event carries no segment attribution: %+v", mask)
	}
	iSwap1 := idxOf(obs.EvSwap, iMask)
	iRepair := idxOf(obs.EvRepair, iSwap1)
	repair := page.Events[iRepair]
	if len(repair.Learners) == 0 {
		t.Fatalf("repair event carries no learner attribution: %+v", repair)
	}
	iUnmask := idxOf(obs.EvUnmask, iRepair)
	if page.Events[iUnmask].Corr != repair.Corr {
		t.Fatalf("unmask corr %d != repair pass corr %d", page.Events[iUnmask].Corr, repair.Corr)
	}
	if repair.Corr == scrub.Corr {
		t.Fatal("repair pass reused the scrub pass's correlation ID")
	}
	idxOf(obs.EvSwap, iUnmask) // the restore install

	// Incremental polling: ?since= replays only the tail.
	resp2, err := http.Get(fmt.Sprintf("%s/events?since=%d", ts.URL, page.Events[iRepair-1].Seq))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var tail struct {
		Events []obs.Event `json:"events"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&tail); err != nil {
		t.Fatal(err)
	}
	if len(tail.Events) == 0 || tail.Events[0].Seq != page.Events[iRepair].Seq {
		t.Fatalf("?since= did not resume at the repair event: %+v", tail.Events)
	}
}
