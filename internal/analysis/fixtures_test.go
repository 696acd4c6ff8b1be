package analysis

import (
	"go/token"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRe matches expected-diagnostic comments in fixture files:
//
//	// want <rule> "<message substring>"
var wantRe = regexp.MustCompile(`want\s+([a-zA-Z0-9_-]+)\s+"([^"]+)"`)

type expectation struct {
	file    string
	line    int
	rule    string
	substr  string
	matched bool
}

// runFixture loads dir as a standalone package under importPath, runs the
// analyzers, and cross-checks the diagnostics against the fixture's
// `// want` comments: every want must be hit by exactly one diagnostic on
// its line, and every diagnostic must be claimed by a want.
func runFixture(t *testing.T, dir, importPath string, analyzers ...*Analyzer) {
	t.Helper()
	pkg, err := LoadDir(dir, importPath)
	if err != nil {
		t.Fatalf("load fixture %s: %v", dir, err)
	}
	wants := collectWants(pkg.Fset, pkg)
	if len(wants) == 0 {
		t.Fatalf("fixture %s declares no `// want` expectations", dir)
	}
	diags := RunAnalyzers([]*Package{pkg}, analyzers)
	for _, d := range diags {
		if !claim(wants, d.Pos.Filename, d.Pos.Line, d.Rule, d.Message) {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected %s diagnostic matching %q, got none",
				filepath.Base(w.file), w.line, w.rule, w.substr)
		}
	}
}

func collectWants(fset *token.FileSet, pkg *Package) []*expectation {
	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
					pos := fset.Position(c.Pos())
					wants = append(wants, &expectation{
						file:   pos.Filename,
						line:   pos.Line,
						rule:   m[1],
						substr: m[2],
					})
				}
			}
		}
	}
	return wants
}

func claim(wants []*expectation, file string, line int, rule, msg string) bool {
	for _, w := range wants {
		if !w.matched && w.file == file && w.line == line && w.rule == rule &&
			strings.Contains(msg, w.substr) {
			w.matched = true
			return true
		}
	}
	return false
}

// fixtureDir builds the path to a fixture package and asserts the
// reported diagnostics carry usable positions (file:line, per the
// acceptance criteria).
func fixtureDir(parts ...string) string {
	return filepath.Join(append([]string{"testdata", "src"}, parts...)...)
}

func TestDiagnosticStringHasFileAndLine(t *testing.T) {
	d := Diagnostic{
		Pos:     token.Position{Filename: "x.go", Line: 3, Column: 7},
		Rule:    "maprange",
		Message: "m",
	}
	if got, want := d.String(), "x.go:3:7: maprange: m"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestAllowRules(t *testing.T) {
	cases := []struct {
		comment string
		want    string
	}{
		{"//jurylint:allow errcrit -- reason", "errcrit"},
		{"//jurylint:allow maprange,errcrit -- reason", "maprange,errcrit"},
		{"// plain comment", ""},
		{"//jurylint:allowerrcrit", ""},
	}
	for _, c := range cases {
		got := strings.Join(allowRules(c.comment), ",")
		if got != c.want {
			t.Errorf("allowRules(%q) = %q, want %q", c.comment, got, c.want)
		}
	}
}

func TestAnalyzerAppliesTo(t *testing.T) {
	a := &Analyzer{Name: "x", Packages: []string{"simnet", "core"}}
	for path, want := range map[string]bool{
		"github.com/jurysdn/jury/internal/simnet": true,
		"github.com/jurysdn/jury/internal/core":   true,
		"github.com/jurysdn/jury/internal/wire":   false,
		"simnet":                                  true,
		"github.com/other/notsimnet":              false,
	} {
		if got := a.appliesTo(path); got != want {
			t.Errorf("appliesTo(%q) = %v, want %v", path, got, want)
		}
	}
	all := &Analyzer{Name: "y"}
	if !all.appliesTo("anything/at/all") {
		t.Error("empty Packages should match every path")
	}
}

func TestModulePathErrors(t *testing.T) {
	if _, err := ModulePath(t.TempDir()); err == nil {
		t.Fatal("ModulePath on empty dir should fail")
	}
}
