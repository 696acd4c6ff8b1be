package analysis

import (
	"sync"
	"testing"
)

// repoRoot is the root of the module this package belongs to.
const repoRoot = "../.."

// loadRepo parses and type-checks the module once for every test that
// reads it.
var loadRepo = sync.OnceValues(func() ([]*Package, error) { return LoadModule(repoRoot) })

// repoSuite returns the module's packages and its default suite.
func repoSuite(t *testing.T) ([]*Package, []*Analyzer) {
	t.Helper()
	modPath, err := ModulePath(repoRoot)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loadRepo()
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loader found only %d packages; module discovery is broken", len(pkgs))
	}
	return pkgs, DefaultSuite(modPath)
}

// TestRepoIsLintClean asserts the real module passes its own suite. It is
// the lint's only driver: `go test ./...` runs it with the tier-1 tests.
func TestRepoIsLintClean(t *testing.T) {
	pkgs, suite := repoSuite(t)
	for _, d := range RunAnalyzers(pkgs, suite) {
		t.Errorf("repo not lint-clean: %s", d)
	}
}

// TestAllowAnnotationsAreLive holds every //jurylint:allow annotation in
// the real module to a purpose: it must name a rule of the default suite
// and suppress at least one diagnostic that rule raises without it. An
// annotation left behind by a fixed call site, or naming a rule that no
// longer exists, fails here.
func TestAllowAnnotationsAreLive(t *testing.T) {
	pkgs, suite := repoSuite(t)
	rules := make(map[string]bool, len(suite))
	for _, a := range suite {
		rules[a.Name] = true
	}
	annotations := 0
	for _, pkg := range pkgs {
		raw := runPackage(pkg, suite)
		for _, s := range allowSpans(pkg.Fset, pkg.Files) {
			annotations++
			if !rules[s.rule] {
				t.Errorf("%s: annotation names %q, which is not a rule of the default suite", s.at, s.rule)
				continue
			}
			live := false
			for _, d := range raw {
				if s.covers(d) {
					live = true
					break
				}
			}
			if !live {
				t.Errorf("%s: %s annotation suppresses nothing; delete it", s.at, s.rule)
			}
		}
	}
	if annotations == 0 {
		t.Fatal("found no //jurylint:allow annotations; the comment scan is broken")
	}
}
