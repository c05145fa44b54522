// Package pmopt finds redundant flush and fence operations in applications
// written against the instrumented PM runtime, by joining two independent
// analyses of the same sites:
//
//   - static: all-paths CFG passes over the shared IR (internal/pmlint/cfgir)
//     prove a site's op can never do persistence work — a duplicate flush of
//     an already-covered line, a fence with provably nothing pending, or a
//     flush whose data arrived via non-temporal stores;
//   - dynamic: a byte-precise replay of the recorded device-op journal
//     through pmem's device checks whether each occurrence actually changed
//     the persistent image at commit time.
//
// Agreement yields the `static+dynamic` confidence tier, whose sites are
// candidates for automatic elimination (Apply) behind a crash-differential
// safety gate; disagreement is itself a finding (`refuted`: the
// line-granular static claim was too coarse for this workload).
package pmopt

import (
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"

	"hawkset/internal/apps"
	"hawkset/internal/crashinject"
	"hawkset/internal/pmlint/cfgir"
	"hawkset/internal/report"
)

// Result is one application's joined analysis.
type Result struct {
	Doc *report.OptDocument
	// Eliminable lists the TierStaticDynamic site keys ("file.go:line",
	// module-relative) — the set Apply is allowed to elide.
	Eliminable []string
	// Prep is the recorded fixed-variant execution the dynamic analysis ran
	// over; Apply reuses it as the baseline.
	Prep *crashinject.Prep
}

// AnalyzeApp records one fixed-variant execution of the application (same
// deterministic workload as the crash-injection harness), replays its
// journal for dynamic evidence, runs the static passes over the app's
// package, and joins the verdicts. dir must lie inside the module (it roots
// the source loader; "." works from anywhere in the repo).
func AnalyzeApp(dir string, e *apps.Entry, opCount int, seed int64) (*Result, error) {
	prep, err := crashinject.Prepare(e, opCount, seed, true)
	if err != nil {
		return nil, err
	}
	rt := prep.Runtime
	dyn, stats := simulate(rt.Ops, rt.Trace.Sites, rt.Pool.Size())

	st, err := analyzeAppStatic(dir, e)
	if err != nil {
		return nil, fmt.Errorf("pmopt: static analysis of %s: %w", e.Name, err)
	}

	doc := &report.OptDocument{
		Tool:        "pmopt",
		Application: e.Name,
		Workload:    fmt.Sprintf("%d ops, seed %d, fixed", opCount, seed),
		Stats:       stats,
	}
	var eliminable []string
	for _, key := range unionKeys(st, dyn) {
		c, ok := join(key, st[key], dyn[key])
		if !ok {
			continue
		}
		doc.Candidates = append(doc.Candidates, c)
		if c.Tier == report.TierStaticDynamic {
			eliminable = append(eliminable, c.Site)
		}
	}
	report.SortCandidates(doc.Candidates)
	sort.Strings(eliminable)
	return &Result{Doc: doc, Eliminable: eliminable, Prep: prep}, nil
}

// join produces the report candidate for one site, or ok=false when the
// site is neither statically claimed nor dynamically eliminable.
func join(key string, st *staticSite, dy *siteDyn) (report.OptCandidate, bool) {
	claim := st != nil && st.Claim()
	elim := dy != nil && dy.Eliminable()
	occ := 0
	if dy != nil {
		occ = dy.Occurrences()
	}
	if !claim && !elim {
		return report.OptCandidate{}, false
	}
	c := report.OptCandidate{
		Site:        key,
		StaticClaim: claim,
		Eliminable:  elim,
	}
	if st != nil {
		c.Func = st.Fn
		c.Op = st.Op
	}
	switch {
	case claim && elim:
		c.Tier = report.TierStaticDynamic
		c.Kind = st.Kind()
	case elim:
		c.Tier = report.TierDynamicOnly
		c.Kind = dy.Kind()
	default:
		c.Tier = report.TierStaticOnly
		c.Kind = st.Kind()
		c.Refuted = occ > 0
	}
	if dy != nil {
		c.Occurrences = occ
		c.Redundant = dy.Redundant()
		c.Op = dy.Op() // the journal knows the true shape (persist vs flush)
		c.Detail = detail(dy)
	} else {
		c.Detail = "site not reached by the recorded workload"
	}
	return c, true
}

// detail renders the dynamic evidence compactly and deterministically.
func detail(d *siteDyn) string {
	var parts []string
	if d.FlushOps > 0 {
		parts = append(parts, fmt.Sprintf("%d/%d flushes changeless (%d dup, %d nt, %d clean)",
			d.ChangelessFlush, d.FlushOps, d.DupFlush, d.NTFlush, d.CleanFlush))
	}
	if d.FenceOps > 0 {
		parts = append(parts, fmt.Sprintf("%d/%d fences redundant", d.RedundantFence, d.FenceOps))
	}
	if d.Uncommitted > 0 {
		parts = append(parts, fmt.Sprintf("%d uncommitted", d.Uncommitted))
	}
	return strings.Join(parts, "; ")
}

func unionKeys(st map[string]*staticSite, dy map[string]*siteDyn) []string {
	seen := make(map[string]bool, len(st)+len(dy))
	var keys []string
	for k := range st {
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	for k := range dy {
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// analyzeAppStatic loads and analyzes the application's own package. The
// package is located from the registered factory function's symbol name —
// the registry is the single source of truth for what code backs an app, so
// no name↔path convention is needed.
func analyzeAppStatic(dir string, e *apps.Entry) (map[string]*staticSite, error) {
	l, err := cfgir.NewLoader(dir)
	if err != nil {
		return nil, err
	}
	pkgPath, err := factoryPackage(e)
	if err != nil {
		return nil, err
	}
	rel := strings.TrimPrefix(pkgPath, l.ModulePath+"/")
	if rel == pkgPath {
		return nil, fmt.Errorf("factory package %q is outside module %q", pkgPath, l.ModulePath)
	}
	pkg, err := l.LoadDir(filepath.Join(l.ModuleDir, filepath.FromSlash(rel)))
	if err != nil {
		return nil, err
	}
	ir := cfgir.Build(l, []*cfgir.Package{pkg})
	return analyzeStatic(ir), nil
}

// factoryPackage extracts the import path of the package defining the
// entry's factory, e.g. "hawkset/internal/apps/part" from
// "hawkset/internal/apps/part.New".
func factoryPackage(e *apps.Entry) (string, error) {
	fn := runtime.FuncForPC(reflect.ValueOf(e.Factory).Pointer())
	if fn == nil {
		return "", fmt.Errorf("app %s: factory has no symbol", e.Name)
	}
	name := fn.Name()
	slash := strings.LastIndex(name, "/")
	dot := strings.Index(name[slash+1:], ".")
	if dot < 0 {
		return "", fmt.Errorf("app %s: cannot parse factory symbol %q", e.Name, name)
	}
	return name[:slash+1+dot], nil
}
