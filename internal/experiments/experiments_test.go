package experiments

import (
	"strings"
	"testing"
)

// tinyOptions keeps every runner cheap enough for the unit-test suite:
// small cohorts, short recordings, narrow hyperspaces.
func tinyOptions() Options {
	return Options{
		Runs:             1,
		Quick:            true,
		Seed:             3,
		SubjectsOverride: 5,
		SamplesOverride:  512,
		HDDimOverride:    1000,
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{Title: "T", Header: []string{"a", "bb"}}
	tab.AddRow("1", "2")
	tab.AddRow("333", "4")
	tab.AddNote("hello %d", 5)
	var sb strings.Builder
	if err := tab.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"T\n", "a", "bb", "333", "note: hello 5"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestOptionsQuality(t *testing.T) {
	q := Defaults().quality()
	if q.HDDim != 10000 || q.NL != 10 {
		t.Errorf("quick quality = %+v", q)
	}
	full := PaperScale().quality()
	if full.DNNHidden[0] != 2048 {
		t.Errorf("paper-scale DNN hidden = %v", full.DNNHidden)
	}
	o := tinyOptions()
	if o.quality().HDDim != 1000 {
		t.Error("HDDimOverride ignored")
	}
	cfg := o.wesadConfig()
	if cfg.NumSubjects != 5 || cfg.SamplesPerState != 512 {
		t.Errorf("overrides ignored: %+v", cfg)
	}
}

func TestPrepareSplitsAndNormalizes(t *testing.T) {
	o := tinyOptions()
	sp, err := prepare(o.wesadConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if sp.train.Len() == 0 || sp.test.Len() == 0 {
		t.Fatal("empty split side")
	}
	// Normalization fitted on train: columns of train have ~zero mean.
	cols := sp.train.NumFeatures()
	for j := 0; j < cols; j += 7 {
		var sum float64
		for _, row := range sp.train.X {
			sum += row[j]
		}
		mean := sum / float64(sp.train.Len())
		if mean > 1e-6 || mean < -1e-6 {
			t.Errorf("train column %d mean = %v, want ~0", j, mean)
		}
	}
	// Subject disjointness.
	testSubj := map[int]bool{}
	for _, s := range sp.test.Subjects {
		testSubj[s] = true
	}
	for _, s := range sp.train.Subjects {
		if testSubj[s] {
			t.Fatal("train and test share a subject")
		}
	}
}

func TestRunTableISmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("long-running experiment smoke test")
	}
	tab, err := RunTableI(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("got %d rows, want 3 datasets", len(tab.Rows))
	}
	if len(tab.Header) != 8 { // Dataset + 7 models
		t.Fatalf("header = %v", tab.Header)
	}
	for _, row := range tab.Rows {
		if len(row) != 8 {
			t.Fatalf("row %v has %d cells", row, len(row))
		}
	}
}

func TestRunTableIISmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("long-running experiment smoke test")
	}
	tab, err := RunTableII(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("got %d rows", len(tab.Rows))
	}
}

func TestRunTableIIISmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("long-running experiment smoke test")
	}
	o := tinyOptions()
	o.SubjectsOverride = 12 // all six cohorts must be populated
	tab, err := RunTableIII(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 7 { // one per model
		t.Fatalf("got %d rows, want 7", len(tab.Rows))
	}
	if tab.Header[len(tab.Header)-1] != "AVERAGE" {
		t.Errorf("last column should be AVERAGE, got %v", tab.Header)
	}
}

func TestRunFigure2(t *testing.T) {
	tab, err := RunFigure2(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 {
		t.Fatal("no rows")
	}
}

func TestRunFigure4(t *testing.T) {
	tab, err := RunFigure4(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestRunFigure5(t *testing.T) {
	if testing.Short() {
		t.Skip("long-running experiment smoke test")
	}
	tab, err := RunFigure5(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d, want OnlineHD + BoostHD", len(tab.Rows))
	}
}

func TestRunFigure6Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("long-running experiment smoke test")
	}
	o := tinyOptions()
	tab, err := RunFigure6(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 {
		t.Fatal("no rows")
	}
}

func TestRunFigure7Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("long-running experiment smoke test")
	}
	tab, err := RunFigure7(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 { // r = 0, 0.2, 0.4, 0.6, 0.8
		t.Fatalf("rows = %d, want 5", len(tab.Rows))
	}
}

func TestRunFigure8Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("long-running experiment smoke test")
	}
	tab, err := RunFigure8(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 { // five p_b values
		t.Fatalf("rows = %d, want 5", len(tab.Rows))
	}
}

func TestRunFigure3Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("long-running experiment smoke test")
	}
	a, b, err := RunFigure3(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rows) == 0 || len(b.Rows) == 0 {
		t.Fatal("empty heatmaps")
	}
}

func TestZooCoversPaperModels(t *testing.T) {
	names := modelNames(zoo())
	want := []string{"Adaboost", "RF", "XGBoost", "SVM", "DNN", "OnlineHD", "BoostHD"}
	if len(names) != len(want) {
		t.Fatalf("zoo = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("zoo[%d] = %s, want %s (Table I column order)", i, names[i], want[i])
		}
	}
	if len(hdcZoo()) != 2 {
		t.Error("hdcZoo should hold the two HDC models")
	}
}

func TestRunDriftSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("long-running experiment smoke test")
	}
	// The drift stream needs enough held-out rows for 8 windows, so the
	// cohort is slightly larger than tinyOptions'.
	opt := tinyOptions()
	opt.SubjectsOverride = 6
	opt.SamplesOverride = 2048
	opt.HDDimOverride = 600
	tab, err := RunDrift(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 8 {
		t.Fatalf("rows = %d, want 8 stream windows", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if len(row) != 6 {
			t.Fatalf("row %v: want 6 cells", row)
		}
	}
}

func TestRunInferBenchSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("long-running experiment smoke test")
	}
	tab, err := RunInferBench(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 { // float and packed-binary backends
		t.Fatalf("rows = %d, want 2", len(tab.Rows))
	}
}

func TestRunReliabilitySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("long-running experiment smoke test")
	}
	opt := tinyOptions()
	opt.SubjectsOverride = 6
	opt.SamplesOverride = 2048
	opt.HDDimOverride = 600
	tab, err := RunReliability(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 8 {
		t.Fatalf("rows = %d, want 8 soak windows", len(tab.Rows))
	}
	// Every fault window must end with both protected stacks repaired
	// back to bit-for-bit pristine predictions (RunReliability itself
	// errors on undetected injections or a dim<learner window — the
	// err check above is the acceptance gate).
	for _, row := range tab.Rows {
		if len(row) != 9 {
			t.Fatalf("row %v: want 9 cells", row)
		}
		if row[8] != "true" {
			t.Fatalf("row %v: post-repair predictions diverged from pristine", row)
		}
	}
}

func TestRunECCSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("long-running experiment smoke test")
	}
	opt := tinyOptions()
	opt.SubjectsOverride = 6
	opt.SamplesOverride = 2048
	opt.HDDimOverride = 600
	tab, err := RunECC(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 8 {
		t.Fatalf("rows = %d, want 8 windows", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if len(row) != 8 {
			t.Fatalf("row %v: want 8 cells", row)
		}
		// The scrub+repair stack must track the clean model exactly —
		// repair restores the identical quantization every window.
		if row[3] != row[2] {
			t.Fatalf("row %v: scrub+repair acc %s != clean acc %s", row, row[3], row[2])
		}
	}
}

func TestRunInferSweepSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("long-running experiment smoke test")
	}
	encT, predT, err := RunInferSweep(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	// HDDimOverride collapses the dimension axis to one value, leaving
	// one encoder row per projection mode and float+binary predict rows.
	if len(encT.Rows) != 2 {
		t.Fatalf("encoder rows = %d, want 2 projection modes", len(encT.Rows))
	}
	if len(predT.Rows) != 4 {
		t.Fatalf("predict rows = %d, want 2 modes x 2 backends", len(predT.Rows))
	}
	for _, row := range predT.Rows {
		if len(row) != len(predT.Header) {
			t.Fatalf("predict row %v: want %d cells", row, len(predT.Header))
		}
	}
	if encT.Rows[0][1] != "stored" || encT.Rows[1][1] != "seeded" {
		t.Fatalf("unexpected projection row order: %v / %v", encT.Rows[0], encT.Rows[1])
	}
}
