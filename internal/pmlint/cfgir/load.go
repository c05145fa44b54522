package cfgir

// The loader: stdlib-only (go/ast, go/parser, go/types) package loading for
// a single module, so the static tools need no dependency beyond the
// standard library.

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// PmrtPath is the import path of the instrumented runtime package whose API
// the static analyses key on.
const PmrtPath = "hawkset/internal/pmrt"

// Package is one loaded, type-checked package.
type Package struct {
	Path  string // import path
	Dir   string // absolute directory
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// Loader loads and type-checks packages of a single module from source.
type Loader struct {
	Fset       *token.FileSet
	ModuleDir  string // absolute path of the directory containing go.mod
	ModulePath string // module path from go.mod

	pkgs    map[string]*Package // keyed by import path
	loading map[string]bool     // cycle guard
	std     types.Importer      // stdlib fallback (type-checks GOROOT source)
}

// NewLoader creates a loader rooted at the module containing dir (dir or an
// ancestor must hold go.mod).
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("cfgir: no go.mod found above %s", abs)
		}
		root = parent
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:       fset,
		ModuleDir:  root,
		ModulePath: modPath,
		pkgs:       make(map[string]*Package),
		loading:    make(map[string]bool),
		std:        importer.ForCompiler(fset, "source", nil),
	}, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("cfgir: no module directive in %s", gomod)
}

// Expand resolves command-line package patterns to directories. Supported
// forms: "./...", "./path/...", "./path", an absolute or relative directory,
// or a module-rooted import path.
func (l *Loader) Expand(patterns []string) ([]string, error) {
	var dirs []string
	seen := make(map[string]bool)
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive = true
			pat = rest
			if pat == "." || pat == "" {
				pat = l.ModuleDir
			}
		}
		if rest, ok := strings.CutPrefix(pat, l.ModulePath); ok && !filepath.IsAbs(pat) {
			pat = filepath.Join(l.ModuleDir, strings.TrimPrefix(rest, "/"))
		}
		if !filepath.IsAbs(pat) {
			pat = filepath.Join(l.ModuleDir, pat)
		}
		if !recursive {
			if hasGoFiles(pat) {
				add(pat)
			}
			continue
		}
		err := filepath.WalkDir(pat, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			// testdata trees hold deliberate-misuse fixtures and are not
			// part of the build, exactly as the go tool treats them.
			if p != pat && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			if hasGoFiles(p) {
				add(p)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
			return true
		}
	}
	return false
}

// importPathOf maps a module-internal directory to its import path.
func (l *Loader) importPathOf(dir string) (string, error) {
	rel, err := filepath.Rel(l.ModuleDir, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.ModulePath, nil
	}
	if strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("cfgir: %s is outside module %s", dir, l.ModuleDir)
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel), nil
}

// LoadDir parses and type-checks the package in dir (non-test files only),
// loading module-internal imports recursively and stdlib imports from GOROOT
// source.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	path, err := l.importPathOf(abs)
	if err != nil {
		return nil, err
	}
	return l.load(path, abs)
}

func (l *Loader) load(path, dir string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("cfgir: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	var names []string
	for _, e := range ents {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		// Honour _GOARCH suffixes and //go:build lines, as the go tool does:
		// a package may declare a function once per architecture.
		ok, err := build.Default.MatchFile(dir, n)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		names = append(names, filepath.Join(dir, n))
	}
	sort.Strings(names)
	for _, fn := range names {
		f, err := parser.ParseFile(l.Fset, fn, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("cfgir: no buildable Go files in %s", dir)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: (*loaderImporter)(l)}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("cfgir: type-checking %s: %w", path, err)
	}
	p := &Package{Path: path, Dir: dir, Files: files, Pkg: tpkg, Info: info}
	l.pkgs[path] = p
	return p, nil
}

// loaderImporter resolves module-internal import paths through the Loader
// and everything else through the GOROOT source importer.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	l := (*Loader)(li)
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
		p, err := l.load(path, filepath.Join(l.ModuleDir, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		return p.Pkg, nil
	}
	return l.std.Import(path)
}
