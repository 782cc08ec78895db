package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked package of the module: its syntax, its
// types, and the resolved use/def information the analyzers consume.
type Package struct {
	// Path is the package's import path (module path + relative dir).
	Path string
	// Dir is the absolute directory holding the package's sources.
	Dir string
	// Files holds the parsed non-test files, sorted by file name.
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// Info carries the resolved identifier/selection/type tables.
	Info *types.Info
	// Errors collects parse and type errors. A package with errors is
	// still returned (partial information beats none), but the driver
	// treats any error as a failed lint run.
	Errors []error

	fset *token.FileSet
}

// Loader parses and type-checks module packages with nothing beyond
// the standard library: module sources are resolved by mapping import
// paths onto the module directory tree, and standard-library imports
// are type-checked from $GOROOT/src via the stdlib source importer.
type Loader struct {
	Fset *token.FileSet

	moduleRoot string
	modulePath string
	goVersion  string

	std     types.Importer
	pkgs    map[string]*Package // keyed by import path
	loading map[string]bool     // import cycle detection
}

// NewLoader constructs a loader for the module containing dir (the
// nearest ancestor with a go.mod).
func NewLoader(dir string) (*Loader, error) {
	root, modPath, goVer, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:       fset,
		moduleRoot: root,
		modulePath: modPath,
		goVersion:  goVer,
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       make(map[string]*Package),
		loading:    make(map[string]bool),
	}, nil
}

// findModule walks up from dir to the nearest go.mod and extracts the
// module path and go directive.
func findModule(dir string) (root, modPath, goVersion string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", "", err
	}
	for d := abs; ; {
		data, rerr := os.ReadFile(filepath.Join(d, "go.mod"))
		if rerr == nil {
			modPath, goVersion = parseGoMod(string(data))
			if modPath == "" {
				return "", "", "", fmt.Errorf("lint: no module directive in %s/go.mod", d)
			}
			return d, modPath, goVersion, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", "", fmt.Errorf("lint: no go.mod above %s", abs)
		}
		d = parent
	}
}

func parseGoMod(src string) (modPath, goVersion string) {
	for _, line := range strings.Split(src, "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			modPath = strings.TrimSpace(rest)
		} else if rest, ok := strings.CutPrefix(line, "go "); ok {
			goVersion = "go" + strings.TrimSpace(rest)
		}
	}
	return modPath, goVersion
}

// LoadPatterns expands command-line patterns into loaded packages.
// Supported forms: "./..." (every package under the module root),
// "dir/..." (every package under dir), and plain directory paths.
func (l *Loader) LoadPatterns(patterns []string) ([]*Package, error) {
	var dirs []string
	seen := make(map[string]bool)
	add := func(d string) {
		if abs, err := filepath.Abs(d); err == nil && !seen[abs] {
			seen[abs] = true
			dirs = append(dirs, abs)
		}
	}
	for _, pat := range patterns {
		if base, ok := strings.CutSuffix(pat, "/..."); ok {
			if base == "." || base == "" {
				base = l.moduleRoot
			}
			subdirs, err := packageDirs(base)
			if err != nil {
				return nil, err
			}
			for _, d := range subdirs {
				add(d)
			}
			continue
		}
		add(pat)
	}
	sort.Strings(dirs)
	pkgs := make([]*Package, 0, len(dirs))
	for _, d := range dirs {
		p, err := l.LoadDir(d)
		if err != nil {
			return nil, err
		}
		if p != nil {
			pkgs = append(pkgs, p)
		}
	}
	return pkgs, nil
}

// packageDirs returns every directory under root containing at least
// one non-test .go file, skipping hidden and testdata directories.
func packageDirs(root string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		ents, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if isLintableFile(e.Name()) {
				out = append(out, path)
				break
			}
		}
		return nil
	})
	return out, err
}

func isLintableFile(name string) bool {
	return strings.HasSuffix(name, ".go") &&
		!strings.HasSuffix(name, "_test.go") &&
		!strings.HasPrefix(name, ".") && !strings.HasPrefix(name, "_")
}

// LoadDir loads (or returns the memoized) package in the given
// directory. Returns (nil, nil) for a directory without lintable
// files. Test files (_test.go) are excluded: the lint invariants
// target production code, and tests routinely exercise the very
// patterns the analyzers forbid.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(l.moduleRoot, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return nil, fmt.Errorf("lint: %s is outside module %s", dir, l.moduleRoot)
	}
	path := l.modulePath
	if rel != "." {
		path = l.modulePath + "/" + filepath.ToSlash(rel)
	}
	return l.loadPath(path, abs)
}

// importPkg implements types.Importer over the module tree plus the
// standard library.
func (l *Loader) importPkg(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.modulePath || strings.HasPrefix(path, l.modulePath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modulePath), "/")
		dir := filepath.Join(l.moduleRoot, filepath.FromSlash(rel))
		p, err := l.loadPath(path, dir)
		if err != nil {
			return nil, err
		}
		if p == nil {
			return nil, fmt.Errorf("lint: no Go files in %s", dir)
		}
		if len(p.Errors) > 0 {
			return nil, fmt.Errorf("lint: dependency %s has errors: %v", path, p.Errors[0])
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// loadPath parses and type-checks one package directory under its
// import path, memoizing the result.
func (l *Loader) loadPath(path, dir string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: read %s: %w", dir, err)
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() && isLintableFile(e.Name()) {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		l.pkgs[path] = nil
		return nil, nil
	}
	sort.Strings(names)

	p := &Package{Path: path, Dir: dir, fset: l.Fset}
	for _, name := range names {
		file, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			p.Errors = append(p.Errors, err)
			continue
		}
		p.Files = append(p.Files, file)
	}

	p.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{
		Importer:  importerFunc(l.importPkg),
		GoVersion: l.goVersion,
		Error:     func(err error) { p.Errors = append(p.Errors, err) },
	}
	// Check always returns a (possibly incomplete) package; errors have
	// been collected through conf.Error above.
	p.Types, _ = conf.Check(path, l.Fset, p.Files, p.Info)
	l.pkgs[path] = p
	return p, nil
}
