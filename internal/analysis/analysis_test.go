package analysis

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// goldenCases pairs each analyzer with its seeded-violation and clean
// testdata packages under testdata/src.
var goldenCases = []struct {
	analyzer *Analyzer
	flagged  string
	clean    string
}{
	{LockSafety, "locksafety/flagged", "locksafety/clean"},
	{HotAlloc, "hotalloc/flagged", "hotalloc/clean"},
	{VersionBump, "versionbump/flagged", "versionbump/clean"},
	{SnapshotAlias, "snapshotalias/flagged", "snapshotalias/clean"},
}

// loadGolden typechecks every golden testdata package once, shared across
// the subtests.
func loadGolden(t *testing.T) (*Program, map[string]*Package) {
	t.Helper()
	var rels []string
	for _, c := range goldenCases {
		rels = append(rels, c.flagged, c.clean)
	}
	prog, pkgs, err := LoadDirs("testdata/src", "lint.example", rels)
	if err != nil {
		t.Fatalf("loading golden packages: %v", err)
	}
	byRel := map[string]*Package{}
	for _, p := range pkgs {
		rel := strings.TrimPrefix(p.Path, "lint.example/")
		byRel[rel] = p
	}
	return prog, byRel
}

var wantRE = regexp.MustCompile(`// want (("[^"]*" ?)+)`)
var quotedRE = regexp.MustCompile(`"([^"]*)"`)

// fileWants extracts `// want "substr"` expectations from one source file,
// keyed by line.
func fileWants(t *testing.T, path string) map[int][]string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := map[int][]string{}
	for i, line := range strings.Split(string(data), "\n") {
		m := wantRE.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		for _, q := range quotedRE.FindAllStringSubmatch(m[1], -1) {
			out[i+1] = append(out[i+1], q[1])
		}
	}
	return out
}

// TestGolden runs each analyzer over its flagged package (every seeded
// violation must be reported, and nothing else) and its clean package
// (zero findings).
func TestGolden(t *testing.T) {
	prog, byRel := loadGolden(t)
	for _, c := range goldenCases {
		c := c
		t.Run(c.analyzer.Name+"/flagged", func(t *testing.T) {
			pkg := byRel[c.flagged]
			if pkg == nil {
				t.Fatalf("testdata package %s did not load", c.flagged)
			}
			findings := Run(prog, []*Package{pkg}, []*Analyzer{c.analyzer})

			wants := map[string]map[int][]string{}
			total := 0
			for _, f := range pkg.Files {
				name := prog.Fset.Position(f.Pos()).Filename
				wants[name] = fileWants(t, name)
				total += len(wants[name])
			}
			if total == 0 {
				t.Fatalf("%s has no // want expectations", c.flagged)
			}

			matched := map[string]bool{}
			for _, f := range findings {
				if f.Analyzer != c.analyzer.Name {
					t.Errorf("unexpected analyzer %q in finding %s", f.Analyzer, f)
					continue
				}
				ok := false
				for _, substr := range wants[f.Pos.Filename][f.Pos.Line] {
					if strings.Contains(f.Message, substr) {
						ok = true
						matched[fmt.Sprintf("%s:%d:%s", f.Pos.Filename, f.Pos.Line, substr)] = true
					}
				}
				if !ok {
					t.Errorf("unexpected finding: %s", f)
				}
			}
			for name, byLine := range wants {
				for line, substrs := range byLine {
					for _, substr := range substrs {
						if !matched[fmt.Sprintf("%s:%d:%s", name, line, substr)] {
							t.Errorf("missing finding at %s:%d matching %q", name, line, substr)
						}
					}
				}
			}
		})
		t.Run(c.analyzer.Name+"/clean", func(t *testing.T) {
			pkg := byRel[c.clean]
			if pkg == nil {
				t.Fatalf("testdata package %s did not load", c.clean)
			}
			for _, f := range Run(prog, []*Package{pkg}, []*Analyzer{c.analyzer}) {
				t.Errorf("finding in clean package: %s", f)
			}
		})
	}
}

// benchKernels maps every benchmark of BENCH_baseline.json to the
// //hd:hotpath kernels it exercises. The test pins the contract both
// ways: a baseline benchmark without a mapping here fails (a new
// benchmark must name its kernels), and a mapped kernel that lost its
// marker fails (a kernel must stay under hotalloc enforcement).
var benchKernels = map[string][]struct{ dir, fn string }{
	"boosthd.BenchmarkInferBackends": {
		{"internal/boosthd", "classifyEncoded"},
		{"internal/boosthd", "learnerScores"},
		{"internal/infer", "predictBits"},
	},
	"internal/encoding.BenchmarkEncodeBatchParallel": {
		{"internal/encoding", "encodeRows"},
		{"internal/encoding", "dots4"},
		{"internal/encoding", "activate"},
	},
	"internal/encoding.BenchmarkEncodeBatchRemat": {
		{"internal/encoding", "encodeRows"},
		{"internal/encoding", "buildTables"},
		{"internal/encoding", "sumTables"},
		{"internal/encoding", "activate"},
	},
	"internal/encoding.BenchmarkEncodeBitsRemat": {
		{"internal/encoding", "encodeBitsRows"},
		{"internal/encoding", "buildTurns"},
		{"internal/encoding", "signTurns"},
	},
	"internal/encoding.BenchmarkEncodeBitsStored": {
		{"internal/encoding", "encodeBitsRows"},
		{"internal/encoding", "dots4"},
		{"internal/encoding", "signWords"},
		{"internal/encoding", "turnWord"},
	},
	"internal/encoding.BenchmarkEncodeLinear":    {{"internal/encoding", "encodeRows"}, {"internal/encoding", "dots"}},
	"internal/encoding.BenchmarkEncodeNonlinear": {{"internal/encoding", "encodeRows"}, {"internal/encoding", "dots"}},
	"internal/encoding.BenchmarkEncodeRFF":       {{"internal/encoding", "encodeRows"}, {"internal/encoding", "dots"}},
	"internal/encoding.BenchmarkIDLevelEncode":   {{"internal/encoding", "quantize"}},
	"internal/infer.BenchmarkPredictBatchBinary": {{"internal/infer", "predictBits4"}},
	"internal/infer.BenchmarkPredictBatchFloat":  {{"internal/boosthd", "classifyEncoded"}, {"internal/boosthd", "learnerScores"}},
	"internal/infer.BenchmarkScoreEncodedBinary": {
		{"internal/infer", "planeDistance"},
		{"internal/infer", "planeDistance4"},
	},
	"internal/infer.BenchmarkScoreEncodedFloat": {{"internal/boosthd", "learnerScores"}, {"internal/hdc", "Dots"}},
	"internal/obs.BenchmarkHistogramObserve":    {{"internal/obs", "Observe"}},
	"internal/obs.BenchmarkSpanStamp":           {{"internal/obs", "Stamp"}},
	"internal/serve.BenchmarkTenantResolve":     {{"internal/serve", "Resolve"}},
	"internal/serve.BenchmarkTenantResolveParallel": {
		{"internal/serve", "Resolve"},
		{"internal/serve", "shard"},
	},
}

// TestHotpathCoversBaselineKernels checks that every benchmark in the
// tier-1 baseline maps to kernels carrying //hd:hotpath, so the kernels
// the benchmark guard defends are exactly the ones hotalloc keeps
// allocation-free.
func TestHotpathCoversBaselineKernels(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCH_baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	var baseline struct {
		Benchmarks map[string]float64 `json:"benchmarks"`
	}
	if err := json.Unmarshal(data, &baseline); err != nil {
		t.Fatal(err)
	}
	if len(baseline.Benchmarks) == 0 {
		t.Fatal("baseline holds no benchmarks")
	}
	for name := range baseline.Benchmarks {
		if _, ok := benchKernels[name]; !ok {
			t.Errorf("baseline benchmark %s has no kernel mapping; add its //hd:hotpath kernels to benchKernels", name)
		}
	}

	// hotpathFuncs caches, per package directory, the function names whose
	// doc comment carries the //hd:hotpath marker.
	hotpathFuncs := map[string]map[string]bool{}
	marked := func(t *testing.T, dir, fn string) bool {
		t.Helper()
		if hotpathFuncs[dir] == nil {
			fset := token.NewFileSet()
			pkgs, err := parser.ParseDir(fset, filepath.Join("..", "..", dir), nil, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			names := map[string]bool{}
			for _, pkg := range pkgs {
				for _, file := range pkg.Files {
					for _, decl := range file.Decls {
						fd, ok := decl.(*ast.FuncDecl)
						if ok && hasMarker(fd.Doc, markHotpath) {
							names[fd.Name.Name] = true
						}
					}
				}
			}
			hotpathFuncs[dir] = names
		}
		return hotpathFuncs[dir][fn]
	}
	for bench, kernels := range benchKernels {
		for _, k := range kernels {
			if !marked(t, k.dir, k.fn) {
				t.Errorf("%s: kernel %s.%s is not marked //hd:hotpath", bench, k.dir, k.fn)
			}
		}
	}
}
