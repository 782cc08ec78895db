// Package lint is LogStore's project-specific static-analysis
// framework: a small analyzer harness over go/parser and go/types
// (standard library only — no golang.org/x/tools dependency) plus the
// analyzers that mechanize the repo's cross-cutting invariants, the
// ones the compiler cannot see:
//
//   - rawstore:   production packages reach object storage only through
//     the retrying, fault-classifying oss.RetryingStore
//   - boxedvalue: scan paths stay on the typed-vector API instead of the
//     boxed []schema.Value compatibility shim
//
// The cmd/logstore-lint driver runs every analyzer over the module and
// is part of `make check`.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"time"
)

// Analyzer is one named invariant check over one package at a time.
type Analyzer struct {
	// Name identifies the analyzer in findings and -run filters.
	Name string
	// Doc is a one-line description shown by `logstore-lint -list`.
	Doc string
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass)
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Path     string
	Pkg      *types.Package
	Info     *types.Info
	Files    []*ast.File

	report func(Finding)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Finding{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Finding is one reported violation.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Analyzer, f.Message)
}

// PkgBase returns the last segment of the pass's import path, e.g.
// "worker" for logstore/internal/worker. Scoped analyzers match on it
// so test fixtures under testdata/src/<name> scope identically to the
// real packages.
func (p *Pass) PkgBase() string {
	if i := strings.LastIndexByte(p.Path, '/'); i >= 0 {
		return p.Path[i+1:]
	}
	return p.Path
}

// Stat records one analyzer's cost and yield over a run, for the
// driver's per-analyzer summary.
type Stat struct {
	Name     string
	Duration time.Duration
	Findings int
}

// Run applies the given analyzers to the given packages and returns
// the findings sorted by position. Packages with parse or type errors
// contribute an error instead of being analyzed: analyzers must only
// ever see fully resolved type information.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Finding, error) {
	findings, _, err := RunStats(pkgs, analyzers)
	return findings, err
}

// RunStats is Run plus per-analyzer timing and finding counts.
func RunStats(pkgs []*Package, analyzers []*Analyzer) ([]Finding, []Stat, error) {
	for _, pkg := range pkgs {
		if len(pkg.Errors) > 0 {
			return nil, nil, fmt.Errorf("lint: %s: %v", pkg.Path, pkg.Errors[0])
		}
	}
	var findings []Finding
	stats := make([]Stat, 0, len(analyzers))
	for _, a := range analyzers {
		start := time.Now()
		before := len(findings)
		for _, pkg := range pkgs {
			a.Run(&Pass{
				Analyzer: a,
				Fset:     pkgFset(pkg),
				Path:     pkg.Path,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				Files:    pkg.Files,
				report:   func(f Finding) { findings = append(findings, f) },
			})
		}
		stats = append(stats, Stat{Name: a.Name, Duration: time.Since(start), Findings: len(findings) - before})
	}
	sortFindings(findings)
	return findings, stats, nil
}

func sortFindings(findings []Finding) {
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Analyzer < b.Analyzer
	})
}

// pkgFset recovers the FileSet used to load pkg. All packages from one
// Loader share a FileSet; Package keeps no direct reference, so thread
// it through a private accessor on the files themselves.
func pkgFset(pkg *Package) *token.FileSet { return pkg.fset }

// namedTypePkgPath returns the import path of t's declaring package
// after unwrapping pointers and aliases, or "" for unnamed types.
func namedTypePkgPath(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Path()
}

// namedTypeName returns t's type name after unwrapping pointers, or
// "" for unnamed types.
func namedTypeName(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	return named.Obj().Name()
}

// isPkgPath reports whether path is exactly want or ends in "/"+want,
// matching both real module paths and testdata fixture paths.
func isPkgPath(path, want string) bool {
	return path == want || strings.HasSuffix(path, "/"+want)
}

// recvOfCall resolves the receiver type of a method call expression,
// or nil when call is not a method call.
func recvOfCall(info *types.Info, call *ast.CallExpr) types.Type {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	selection, ok := info.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return nil
	}
	return selection.Recv()
}

// calleeFunc resolves the called function/method object, or nil.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}
