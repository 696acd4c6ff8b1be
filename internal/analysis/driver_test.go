package analysis

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.txt from current output")

// TestDriverGolden runs the full default suite over the seeded mini
// module and compares the formatted driver output against the golden
// file, pinning both the diagnostics and their file:line rendering.
func TestDriverGolden(t *testing.T) {
	root, err := filepath.Abs(fixtureDir("golden"))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := LoadModule(root)
	if err != nil {
		t.Fatalf("load golden module: %v", err)
	}
	diags := RunAnalyzers(pkgs, DefaultSuite("example.com/golden"))
	got := Format(root, diags)

	goldenPath := filepath.Join("testdata", "golden.txt")
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden file (run `go test -run Golden -update ./internal/analysis` to create it): %v", err)
	}
	if got != string(want) {
		t.Errorf("driver output mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestRepoIsLintClean asserts the real module passes its own suite: the
// tier-1 verify gate (`go run ./cmd/jury lint ./...`) must exit 0.
func TestRepoIsLintClean(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	modPath, err := ModulePath(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := LoadModule(root)
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loader found only %d packages; module discovery is broken", len(pkgs))
	}
	diags := RunAnalyzers(pkgs, DefaultSuite(modPath))
	for _, d := range diags {
		t.Errorf("repo not lint-clean: %s", d)
	}
}

// TestAllowAnnotationsAreLive holds every //jurylint:allow annotation in
// the real module to a purpose: it must name a rule of the default suite
// and suppress at least one diagnostic that rule raises without it. An
// annotation left behind by a fixed call site, or naming a rule that no
// longer exists, fails here.
func TestAllowAnnotationsAreLive(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	modPath, err := ModulePath(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := LoadModule(root)
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	suite := DefaultSuite(modPath)
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
