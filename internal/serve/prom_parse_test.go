package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"boosthd/internal/infer"
	"boosthd/internal/obs"
)

// promFamily is one parsed metric family from the text exposition.
type promFamily struct {
	name    string
	help    bool
	typ     string
	samples []promSample
}

type promSample struct {
	name   string // full sample name (family, or family_bucket/_sum/_count)
	labels string // raw label block, "" when unlabeled
	value  float64
}

// parseExposition parses Prometheus text format 0.0.4 with the strict
// structural rules the scrape side relies on: every sample belongs to a
// family announced by a # HELP line immediately followed by a # TYPE
// line, no family is announced twice, and every value parses as a
// float. It is deliberately stdlib-only — the point is that OUR
// exposition is well-formed, not that a client library is lenient.
func parseExposition(t *testing.T, body string) map[string]*promFamily {
	t.Helper()
	fams := map[string]*promFamily{}
	var last *promFamily // family announced by the most recent HELP line
	for ln, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.TrimPrefix(line, "# HELP ")
			name, help, ok := strings.Cut(rest, " ")
			if !ok || help == "" {
				t.Fatalf("line %d: HELP without text: %q", ln+1, line)
			}
			if fams[name] != nil {
				t.Fatalf("line %d: family %s announced twice", ln+1, name)
			}
			last = &promFamily{name: name, help: true}
			fams[name] = last
		case strings.HasPrefix(line, "# TYPE "):
			rest := strings.TrimPrefix(line, "# TYPE ")
			name, typ, ok := strings.Cut(rest, " ")
			if !ok {
				t.Fatalf("line %d: TYPE without a type: %q", ln+1, line)
			}
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Fatalf("line %d: unknown metric type %q", ln+1, typ)
			}
			if last == nil || last.name != name {
				t.Fatalf("line %d: TYPE %s not immediately after its HELP", ln+1, name)
			}
			if last.typ != "" {
				t.Fatalf("line %d: family %s typed twice", ln+1, name)
			}
			last.typ = typ
		case strings.HasPrefix(line, "#"):
			t.Fatalf("line %d: unrecognized comment %q", ln+1, line)
		default:
			name := line
			labels := ""
			if i := strings.IndexByte(line, '{'); i >= 0 {
				j := strings.LastIndexByte(line, '}')
				if j < i {
					t.Fatalf("line %d: unterminated label block: %q", ln+1, line)
				}
				name, labels = line[:i], line[i+1:j]
				line = line[:i] + line[j+1:]
			}
			if i := strings.IndexByte(name, ' '); i >= 0 {
				name = name[:i]
			}
			_, valStr, ok := strings.Cut(line, " ")
			if !ok {
				t.Fatalf("line %d: sample without a value: %q", ln+1, line)
			}
			v, err := strconv.ParseFloat(strings.TrimSpace(valStr), 64)
			if err != nil {
				t.Fatalf("line %d: bad sample value: %v", ln+1, err)
			}
			fam := fams[name]
			if fam == nil {
				// Histogram children attach to their base family.
				for _, suf := range []string{"_bucket", "_sum", "_count"} {
					if base := strings.TrimSuffix(name, suf); base != name {
						if f := fams[base]; f != nil && f.typ == "histogram" {
							fam = f
						}
						break
					}
				}
			}
			if fam == nil {
				t.Fatalf("line %d: sample %s has no preceding HELP/TYPE header", ln+1, name)
			}
			if fam.typ == "" {
				t.Fatalf("line %d: sample %s in an untyped family", ln+1, name)
			}
			fam.samples = append(fam.samples, promSample{name: name, labels: labels, value: v})
		}
	}
	return fams
}

// labelValue extracts one label's value from a raw label block.
func labelValue(t *testing.T, labels, key string) string {
	t.Helper()
	for _, kv := range strings.Split(labels, ",") {
		k, v, ok := strings.Cut(kv, "=")
		if ok && k == key {
			return strings.Trim(v, `"`)
		}
	}
	t.Fatalf("label %s missing from {%s}", key, labels)
	return ""
}

// checkHistogram verifies one histogram family's structural contract:
// cumulative monotone buckets with increasing le bounds, a closing
// le="+Inf" bucket whose count equals _count, and a _sum sample.
func checkHistogram(t *testing.T, fam *promFamily) {
	t.Helper()
	var les []float64
	var counts []float64
	var sum, count float64
	haveSum, haveCount := false, false
	for _, s := range fam.samples {
		switch s.name {
		case fam.name + "_bucket":
			le := labelValue(t, s.labels, "le")
			bound := 0.0
			if le == "+Inf" {
				bound = float64(^uint64(0))
			} else {
				var err error
				bound, err = strconv.ParseFloat(le, 64)
				if err != nil {
					t.Fatalf("%s: bad le %q: %v", fam.name, le, err)
				}
			}
			les = append(les, bound)
			counts = append(counts, s.value)
		case fam.name + "_sum":
			sum, haveSum = s.value, true
		case fam.name + "_count":
			count, haveCount = s.value, true
		default:
			t.Fatalf("%s: unexpected histogram child %s", fam.name, s.name)
		}
	}
	if len(les) < 1 {
		t.Fatalf("%s: histogram with no buckets", fam.name)
	}
	if !haveSum || !haveCount {
		t.Fatalf("%s: histogram missing _sum or _count", fam.name)
	}
	for i := 1; i < len(les); i++ {
		if les[i] <= les[i-1] {
			t.Fatalf("%s: bucket bounds not increasing: %v", fam.name, les)
		}
		if counts[i] < counts[i-1] {
			t.Fatalf("%s: cumulative bucket counts decreased: %v", fam.name, counts)
		}
	}
	if les[len(les)-1] != float64(^uint64(0)) {
		t.Fatalf("%s: last bucket is not le=+Inf", fam.name)
	}
	if counts[len(counts)-1] != count {
		t.Fatalf("%s: +Inf bucket %g != _count %g", fam.name, counts[len(counts)-1], count)
	}
	_ = sum
}

// TestMetricsExpositionWellFormed drives real traffic (base, batch, and
// tenant requests) through a fully instrumented handler, then parses
// the whole /metrics exposition with a strict stdlib parser: every
// family HELP/TYPE-headed exactly once, every sample attached to a
// typed family, every histogram family structurally complete, and all
// the observability families actually present.
func TestMetricsExpositionWellFormed(t *testing.T) {
	m, X, _ := fixture(t, 320, 4)
	s, err := NewServer(infer.NewEngine(m), Config{MaxBatch: 8, MaxWait: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	s.SetObs(obs.NewServing(2, 0, 0))
	reg, err := NewTenantRegistry(s, TenantRegistryConfig{Store: NewFileDeltaStore(t.TempDir())})
	if err != nil {
		t.Fatal(err)
	}
	rel := &fakeReliability{st: ReliabilityStatus{
		Learners: 4, Quarantined: []int{1}, MaskedWords: 3, EncoderHeals: 2,
		Ledger: []LearnerHealth{{State: "healthy", HealthyFraction: 1}, {State: "quarantined"}},
	}}
	ts := httptest.NewServer(NewHandler(s, HandlerConfig{Tenants: reg, Reliability: rel}))
	t.Cleanup(ts.Close)

	one, _ := json.Marshal(map[string]any{"features": X[0]})
	batch, _ := json.Marshal(map[string]any{"rows": X[:4]})
	for i := 0; i < 8; i++ {
		if resp := postRaw(t, ts.URL+"/predict", one); resp.StatusCode != http.StatusOK {
			t.Fatalf("predict: %d", resp.StatusCode)
		}
	}
	if resp := postRaw(t, ts.URL+"/predict_batch", batch); resp.StatusCode != http.StatusOK {
		t.Fatalf("predict_batch: %d", resp.StatusCode)
	}
	// A tenant request cold-loads (base passthrough) and populates the
	// cold-load histogram's code path counters.
	resp, err := http.Post(ts.URL+"/t/demo/predict", "application/json", bytes.NewReader(one))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	fams := parseExposition(t, scrapeMetrics(t, ts.URL))
	for name, fam := range fams {
		if !fam.help || fam.typ == "" {
			t.Fatalf("family %s missing HELP or TYPE", name)
		}
		if fam.typ == "histogram" {
			checkHistogram(t, fam)
		}
	}

	want := []string{
		"boosthd_requests_total", "boosthd_batches_total", "boosthd_queue_depth",
		"boosthd_straggler_fires_total", "boosthd_lone_fastpath_total",
		"boosthd_request_seconds", "boosthd_batch_wait_seconds", "boosthd_batch_size_rows",
		"boosthd_encode_seconds", "boosthd_score_seconds", "boosthd_tenant_cold_load_seconds",
		"boosthd_stage_seconds_total",
		"boosthd_trace_sample_every", "boosthd_trace_sampled_total", "boosthd_events_total",
		"boosthd_tenant_evictions_total", "boosthd_tenant_residents", "boosthd_tenant_cache_capacity",
		"boosthd_reliability_quarantined_learners", "boosthd_reliability_encoder_heals_total",
	}
	var missing []string
	for _, name := range want {
		if fams[name] == nil {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		t.Fatalf("families missing from exposition: %v", missing)
	}

	// The request histogram really observed the traffic above.
	req := fams["boosthd_request_seconds"]
	for _, smp := range req.samples {
		if smp.name == "boosthd_request_seconds_count" && smp.value < 8 {
			t.Fatalf("request histogram count %g, want >= 8", smp.value)
		}
	}
	if smp := fams["boosthd_reliability_encoder_heals_total"].samples; len(smp) != 1 || smp[0].value != 2 {
		t.Fatalf("encoder heals counter: %+v, want one sample of 2", smp)
	}
	// Stage accounting carries backend+stage labels.
	for _, smp := range fams["boosthd_stage_seconds_total"].samples {
		labelValue(t, smp.labels, "backend")
		stage := labelValue(t, smp.labels, "stage")
		okStage := false
		for _, name := range obs.StageNames {
			if stage == name {
				okStage = true
			}
		}
		if !okStage {
			t.Fatalf("unknown stage label %q", stage)
		}
	}
}

// TestHealthzBatcherDepth: /healthz exposes the micro-batcher depth
// block — queue length, straggler-timer fires, lone-caller fast-path
// hits — so an operator can see where coalescing time goes.
func TestHealthzBatcherDepth(t *testing.T) {
	ts, s, X := httpFixture(t, HandlerConfig{})
	s.SetObs(obs.NewServing(0, 0, 0))
	one, _ := json.Marshal(map[string]any{"features": X[0]})
	for i := 0; i < 4; i++ {
		if resp := postRaw(t, ts.URL+"/predict", one); resp.StatusCode != http.StatusOK {
			t.Fatalf("predict: %d", resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	b, ok := body["batcher"].(map[string]any)
	if !ok {
		t.Fatalf("healthz has no batcher block: %v", body)
	}
	for _, key := range []string{"queue_depth", "straggler_fires", "lone_fast_path"} {
		if _, ok := b[key]; !ok {
			t.Fatalf("batcher block missing %s: %v", key, b)
		}
	}
	// Four serial lone callers must have hit the fast path at least once.
	if v, ok := b["lone_fast_path"].(float64); !ok || v < 1 {
		t.Fatalf("lone_fast_path = %v, want >= 1", b["lone_fast_path"])
	}
}
