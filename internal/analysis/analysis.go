// Package analysis is a self-contained static-analysis framework built on
// the standard library (go/parser, go/types, go/importer) only, so it runs
// in offline build environments. It exists to enforce the determinism and
// concurrency contract that the simnet substrate depends on: model code
// must not read the wall clock, must not use the global RNG, and must not
// escape the single-threaded event loop. See DESIGN.md "Determinism
// contract & lint rules".
//
// Violations can be suppressed with an annotation comment:
//
//	//jurylint:allow <rule>[,<rule>...] -- justification
//
// The annotation applies to diagnostics on the comment's own line, on the
// line directly below it, or — when it appears in a function's doc
// comment — anywhere inside that function.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// Diagnostic is one rule violation at a source position.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
}

// Pass carries one type-checked package through one analyzer run.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	Path  string // import path
	Pkg   *types.Package
	Info  *types.Info

	rule   string
	report func(Diagnostic)
}

// Reportf records a diagnostic at pos under the running analyzer's rule
// name.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:     p.Fset.Position(pos),
		Rule:    p.rule,
		Message: fmt.Sprintf(format, args...),
	})
}

// Analyzer is one lint rule. Run inspects a package and reports
// diagnostics through the pass.
type Analyzer struct {
	Name string
	Doc  string
	// Packages restricts the analyzer to packages whose import path, or
	// final path element, matches an entry. Empty means every package.
	Packages []string
	Run      func(*Pass)
}

func (a *Analyzer) appliesTo(path string) bool {
	if len(a.Packages) == 0 {
		return true
	}
	for _, p := range a.Packages {
		if path == p || strings.HasSuffix(path, "/"+p) {
			return true
		}
	}
	return false
}

// RunAnalyzers applies every analyzer to every package it matches,
// filters out diagnostics suppressed by //jurylint:allow annotations, and
// returns the rest sorted by position then rule.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		spans := allowSpans(pkg.Fset, pkg.Files)
		for _, d := range runPackage(pkg, analyzers) {
			if !allowed(spans, d) {
				diags = append(diags, d)
			}
		}
	}
	// Position then rule is the canonical driver output order.
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	return diags
}

// runPackage returns the raw diagnostics of every analyzer that applies
// to pkg, before //jurylint:allow filtering.
func runPackage(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		if !a.appliesTo(pkg.Path) {
			continue
		}
		a.Run(&Pass{
			Fset:   pkg.Fset,
			Files:  pkg.Files,
			Path:   pkg.Path,
			Pkg:    pkg.Types,
			Info:   pkg.Info,
			rule:   a.Name,
			report: func(d Diagnostic) { diags = append(diags, d) },
		})
	}
	return diags
}

// Format renders diagnostics one per line with filenames relative to
// root, which keeps driver output and golden files machine-independent.
func Format(root string, diags []Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		name := d.Pos.Filename
		if rel, err := filepath.Rel(root, name); err == nil && !strings.HasPrefix(rel, "..") {
			name = filepath.ToSlash(rel)
		}
		fmt.Fprintf(&b, "%s:%d:%d: %s: %s\n", name, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
	}
	return b.String()
}

var allowRe = regexp.MustCompile(`^//jurylint:allow\s+([a-zA-Z0-9_,-]+)`)

// allowSpan is the source range one rule of one //jurylint:allow
// annotation covers.
type allowSpan struct {
	rule       string
	at         token.Position // the annotation comment
	start, end int            // covered line range in at.Filename, inclusive
}

func (s allowSpan) covers(d Diagnostic) bool {
	return s.rule == d.Rule && s.at.Filename == d.Pos.Filename &&
		d.Pos.Line >= s.start && d.Pos.Line <= s.end
}

// allowSpans returns the spans of every annotation in files. An
// annotation covers its own line and the next one, handling both trailing
// and preceding comment placement; in a function's doc comment it covers
// the whole function as well.
func allowSpans(fset *token.FileSet, files []*ast.File) []allowSpan {
	var spans []allowSpan
	for _, f := range files {
		docOf := make(map[*ast.Comment]*ast.FuncDecl)
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Doc != nil && fd.Body != nil {
				for _, c := range fd.Doc.List {
					docOf[c] = fd
				}
			}
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, rule := range allowRules(c.Text) {
					at := fset.Position(c.Pos())
					end := at.Line + 1
					if fd := docOf[c]; fd != nil {
						end = fset.Position(fd.Body.End()).Line
					}
					spans = append(spans, allowSpan{rule: rule, at: at, start: at.Line, end: end})
				}
			}
		}
	}
	return spans
}

func allowRules(comment string) []string {
	m := allowRe.FindStringSubmatch(comment)
	if m == nil {
		return nil
	}
	var rules []string
	for _, r := range strings.Split(m[1], ",") {
		if r = strings.TrimSpace(r); r != "" {
			rules = append(rules, r)
		}
	}
	return rules
}

func allowed(spans []allowSpan, d Diagnostic) bool {
	for _, s := range spans {
		if s.covers(d) {
			return true
		}
	}
	return false
}
