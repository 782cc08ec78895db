package lint

import (
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// The analyzer tests run each analyzer over a fixture package under
// testdata/src and compare its findings against `// want <analyzer>`
// markers in the fixture source: every marked line must produce exactly
// one finding, and no unmarked line may produce any. Fixtures contain
// both violations and the corresponding fixed patterns, so each test
// proves the analyzer fires where it should AND stays silent where the
// invariant is satisfied.

var (
	fixtureOnce   sync.Once
	fixtureLoader *Loader
	fixtureErr    error
)

// fixtureLoaderFor shares one Loader (and so one type-checked stdlib)
// across all fixture tests: source-importing sync/time/os once costs a
// couple of seconds, and every fixture reuses it.
func fixtureLoaderFor(t *testing.T) *Loader {
	t.Helper()
	fixtureOnce.Do(func() {
		fixtureLoader, fixtureErr = NewLoader(".")
	})
	if fixtureErr != nil {
		t.Fatalf("NewLoader: %v", fixtureErr)
	}
	return fixtureLoader
}

// wantLines collects the expected finding lines from `// want <name>`
// markers in the fixture source.
func wantLines(pkg *Package, analyzer string) map[int]int {
	want := make(map[int]int)
	marker := "// want " + analyzer
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if strings.TrimSpace(c.Text) == marker {
					want[pkg.fset.Position(c.Pos()).Line]++
				}
			}
		}
	}
	return want
}

func runFixture(t *testing.T, fixture string, a *Analyzer) {
	t.Helper()
	l := fixtureLoaderFor(t)
	pkg, err := l.LoadDir(filepath.Join("testdata", "src", fixture))
	if err != nil {
		t.Fatalf("load fixture %s: %v", fixture, err)
	}
	if pkg == nil {
		t.Fatalf("fixture %s has no lintable files", fixture)
	}
	findings, err := Run([]*Package{pkg}, []*Analyzer{a})
	if err != nil {
		t.Fatalf("run %s on %s: %v", a.Name, fixture, err)
	}
	want := wantLines(pkg, a.Name)
	if len(want) == 0 {
		t.Fatalf("fixture %s has no `// want %s` markers", fixture, a.Name)
	}
	got := make(map[int]int)
	for _, f := range findings {
		if f.Analyzer != a.Name {
			t.Errorf("finding attributed to wrong analyzer: %s", f)
		}
		got[f.Pos.Line]++
	}
	for line, n := range want {
		if got[line] != n {
			t.Errorf("%s:%d: want %d %s finding(s), got %d", fixture, line, n, a.Name, got[line])
		}
	}
	for line, n := range got {
		if want[line] == 0 {
			t.Errorf("%s:%d: %d unexpected %s finding(s) — analyzer fired on a pattern marked clean", fixture, line, n, a.Name)
		}
	}
	if t.Failed() {
		for _, f := range findings {
			t.Logf("finding: %s", f)
		}
	}
}

func TestRawStoreAnalyzer(t *testing.T)   { runFixture(t, "worker", RawStoreAnalyzer) }
func TestBoxedValueAnalyzer(t *testing.T) { runFixture(t, "boxeduser", BoxedValueAnalyzer) }

// TestRawStoreScope checks the production-package scoping: the same
// violating code in a package whose import path does not end in a
// production segment (the sim fixture) is out of scope for rawstore.
func TestRawStoreScope(t *testing.T) {
	l := fixtureLoaderFor(t)
	pkg, err := l.LoadDir(filepath.Join("testdata", "src", "sim"))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	findings, err := Run([]*Package{pkg}, []*Analyzer{RawStoreAnalyzer})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, f := range findings {
		t.Errorf("rawstore fired outside its production-package scope: %s", f)
	}
}

func TestByName(t *testing.T) {
	got := ByName([]string{"boxedvalue", "rawstore"})
	if len(got) != 2 || got[0] != BoxedValueAnalyzer || got[1] != RawStoreAnalyzer {
		t.Fatalf("ByName returned %v", got)
	}
	if ByName([]string{"nosuch"}) != nil {
		t.Fatalf("ByName accepted an unknown analyzer name")
	}
}

func TestAllAnalyzersHaveDocs(t *testing.T) {
	names := make(map[string]bool)
	for _, a := range All() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v needs a name, a doc, and a Run", a)
		}
		if names[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		names[a.Name] = true
	}
}
