// Package pmlint is a static PM-misuse analyzer for applications written
// against the instrumented runtime API (internal/pmrt). It is the static
// complement of the dynamic lockset analysis (internal/hawkset): because
// every PM access, flush, fence and lock operation in the simulated
// applications goes through the narrow pmrt.Ctx surface, the *source code*
// itself is checkable for the misuse classes the paper hunts dynamically —
// unpersisted stores, flushes never fenced, PM accesses outside any critical
// section — plus one reproduction-specific class: apps bypassing the
// cooperative scheduler with native Go concurrency, which would silently
// break deterministic replay.
//
// The analyzer is stdlib-only and built on the shared static IR
// (internal/pmlint/cfgir): loader, per-function CFGs, and interprocedural
// fence/persist/store summaries. pmopt (the flush/fence redundancy
// analyzer) consumes the same IR, so the two tools' opposite verdicts —
// "this store is never persisted" vs "this persist is already covered" —
// rest on one model of the program.
package pmlint

import (
	"fmt"
	"go/token"
	"sort"

	"hawkset/internal/pmlint/cfgir"
)

// Loader, Package and the pmrt path re-export the shared IR's loader so
// existing consumers (cmd/pmlint, tests, pmopt bootstrap) keep one import.
type (
	// Loader loads and type-checks packages of a single module from source.
	Loader = cfgir.Loader
	// Package is one loaded, type-checked package.
	Package = cfgir.Package
)

// PmrtPath is the import path of the instrumented runtime package whose API
// the checks key on.
const PmrtPath = cfgir.PmrtPath

// NewLoader creates a loader rooted at the module containing dir.
func NewLoader(dir string) (*Loader, error) { return cfgir.NewLoader(dir) }

// Config configures an analysis run.
type Config struct {
	// AppsPrefix is the package-path prefix under which the
	// scheduler-bypass check applies (applications must use pmrt
	// primitives, never native Go concurrency, or deterministic replay
	// breaks). Default: hawkset/internal/apps.
	AppsPrefix string
}

// Finding is one analyzer diagnostic. The JSON field set is part of the CI
// interface and covered by a format-stability test; do not rename fields.
type Finding struct {
	File    string `json:"file"` // module-relative, slash-separated
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Check   string `json:"check"`
	Message string `json:"message"`
}

// String renders the stable machine-readable line format.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.File, f.Line, f.Check, f.Message)
}

// Key is the line-number-free form used for baseline matching, so recorded
// findings survive unrelated edits that shift line numbers.
func (f Finding) Key() string {
	return fmt.Sprintf("%s: [%s] %s", f.File, f.Check, f.Message)
}

// sortFindings orders findings deterministically.
func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
}

// analysis is the whole-run state: the shared IR plus pmlint's findings.
type analysis struct {
	cfg      Config
	ir       *cfgir.IR
	findings []Finding
}

// Run loads the packages named by patterns (resolved against the module
// containing dir) and runs every check, returning sorted findings.
func Run(dir string, patterns []string, cfg Config) ([]Finding, error) {
	l, err := NewLoader(dir)
	if err != nil {
		return nil, err
	}
	dirs, err := l.Expand(patterns)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, d := range dirs {
		p, err := l.LoadDir(d)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return Analyze(l, pkgs, cfg)
}

// Analyze runs every check over the given loaded packages.
func Analyze(l *Loader, pkgs []*Package, cfg Config) ([]Finding, error) {
	if cfg.AppsPrefix == "" {
		cfg.AppsPrefix = "hawkset/internal/apps"
	}
	a := &analysis{
		cfg: cfg,
		ir:  cfgir.Build(l, pkgs),
	}
	a.checkPersist()  // missing-persist + flush-no-fence (shared summaries)
	a.checkLocksets() // lock-imbalance + empty-lockset
	a.checkBypass()   // scheduler-bypass
	sortFindings(a.findings)
	return dedupe(a.findings), nil
}

// dedupe removes identical findings (a deferred op is replayed at every
// function exit, so one source op can occupy several CFG nodes).
func dedupe(fs []Finding) []Finding {
	out := fs[:0]
	for i, f := range fs {
		if i > 0 && f == fs[i-1] {
			continue
		}
		out = append(out, f)
	}
	return out
}

func (a *analysis) report(pos token.Pos, check, format string, args ...any) {
	file, line, col := a.ir.PosOf(pos)
	a.findings = append(a.findings, Finding{
		File: file, Line: line, Col: col,
		Check:   check,
		Message: fmt.Sprintf(format, args...),
	})
}
