package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

func scrapeMetrics(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q, want text/plain exposition", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// metricLine finds the sample line for a metric name (optionally with a
// label set) and returns it, failing the test when absent.
func metricLine(t *testing.T, body, name string) string {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, name+" ") || strings.HasPrefix(line, name+"{") && strings.Contains(line, name) {
			return line
		}
	}
	t.Fatalf("metric %s missing from exposition:\n%s", name, body)
	return ""
}

// TestMetricsEndpoint: /metrics serves the Prometheus text exposition
// assembled from the serving, trainer, and reliability snapshots — the
// request counter advances with traffic, per-learner health gauges carry
// learner labels, and the optional blocks appear only when their
// subsystem is configured.
func TestMetricsEndpoint(t *testing.T) {
	rel := &fakeReliability{st: ReliabilityStatus{
		Degraded:     true,
		Learners:     3,
		Quarantined:  []int{2},
		DimMasked:    []int{0},
		MaskedWords:  7,
		Scrubs:       11,
		Detections:   2,
		Repairs:      1,
		LastScrubMS:  250,
		EncoderHeals: 4,
		Ledger: []LearnerHealth{
			{State: "degraded", HealthyFraction: 0.75, MaskedWords: 7},
			{State: "healthy", HealthyFraction: 1},
			{State: "quarantined", HealthyFraction: 0},
		},
	}}
	tr := &stubTrainer{dim: 10}
	ts, _, X := httpFixture(t, HandlerConfig{Trainer: tr, Reliability: rel})

	body := scrapeMetrics(t, ts.URL)
	if got := metricLine(t, body, "boosthd_requests_total"); got != "boosthd_requests_total 0" {
		t.Errorf("fresh server: %q", got)
	}
	if got := metricLine(t, body, "boosthd_reliability_degraded"); got != "boosthd_reliability_degraded 1" {
		t.Errorf("degraded gauge: %q", got)
	}
	if got := metricLine(t, body, "boosthd_reliability_masked_words"); got != "boosthd_reliability_masked_words 7" {
		t.Errorf("masked words: %q", got)
	}
	if got := metricLine(t, body, "boosthd_reliability_last_scrub_duration_seconds"); got != "boosthd_reliability_last_scrub_duration_seconds 0.25" {
		t.Errorf("scrub latency: %q", got)
	}
	for _, want := range []string{
		`boosthd_learner_healthy_fraction{learner="0"} 0.75`,
		`boosthd_learner_healthy_fraction{learner="2"} 0`,
		`boosthd_learner_masked_words{learner="0"} 7`,
		"boosthd_trainer_observed_total 0",
		"boosthd_reliability_quarantined_learners 1",
		"boosthd_reliability_dim_masked_learners 1",
		"boosthd_reliability_scrubs_total 11",
		"boosthd_reliability_encoder_heals_total 4",
	} {
		if !strings.Contains(body, want+"\n") {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Every metric family must carry HELP and TYPE headers.
	for _, name := range []string{"boosthd_requests_total", "boosthd_learner_healthy_fraction"} {
		if !strings.Contains(body, "# HELP "+name+" ") || !strings.Contains(body, "# TYPE "+name+" ") {
			t.Errorf("metric %s lacks HELP/TYPE headers", name)
		}
	}

	// Traffic moves the counters.
	raw, _ := json.Marshal(map[string]any{"rows": [][]float64{X[0], X[1], X[2]}})
	if resp := postRaw(t, ts.URL+"/predict_batch", raw); resp.StatusCode != http.StatusOK {
		t.Fatalf("predict_batch: %d", resp.StatusCode)
	}
	body = scrapeMetrics(t, ts.URL)
	if got := metricLine(t, body, "boosthd_requests_total"); got != "boosthd_requests_total 3" {
		t.Errorf("after 3 rows: %q", got)
	}

	// Without trainer/reliability hooks their families stay absent.
	bare, _, _ := httpFixture(t, HandlerConfig{})
	body = scrapeMetrics(t, bare.URL)
	for _, name := range []string{"boosthd_trainer_", "boosthd_reliability_", "boosthd_learner_"} {
		if strings.Contains(body, name) {
			t.Errorf("bare server exposes %s* metrics", name)
		}
	}
	metricLine(t, body, "boosthd_model_version")

	// Encoder identity: the state gauge reports resident encoder memory
	// and the info metric carries backend + projection labels.
	if line := metricLine(t, body, "boosthd_encoder_state_bytes"); strings.HasSuffix(line, " 0") {
		t.Errorf("encoder state gauge reports no memory: %q", line)
	}
	if line := metricLine(t, body, "boosthd_model_info"); !strings.Contains(line, `backend="float"`) ||
		!strings.Contains(line, `projection="stored"`) || !strings.HasSuffix(line, " 1") {
		t.Errorf("model info metric mislabeled: %q", line)
	}

	// POST is not a scrape.
	resp, err := http.Post(ts.URL+"/metrics", "text/plain", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /metrics: %d, want 405", resp.StatusCode)
	}
}
