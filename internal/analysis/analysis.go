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
	// Init, when set, runs once per RunAnalyzers call with every loaded
	// package before the per-package Run passes. Analyzers use it to
	// build module-wide indexes (exported-API candidate sets) and to
	// report module-level diagnostics that have no single home package.
	Init func(*ModuleContext)
}

// ModuleContext carries the whole loaded module through an analyzer's
// Init hook.
type ModuleContext struct {
	Pkgs []*Package

	rule   string
	report func(Diagnostic)
}

// Reportf records a module-level diagnostic at pos. Positions resolve
// through the fileset of the package that declares them; LoadModule
// shares one fileset across the module, so any loaded package's
// positions work.
func (m *ModuleContext) Reportf(fset *token.FileSet, pos token.Pos, format string, args ...any) {
	m.report(Diagnostic{
		Pos:     fset.Position(pos),
		Rule:    m.rule,
		Message: fmt.Sprintf(format, args...),
	})
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
	allows := make([]*allowIndex, len(pkgs))
	for i, pkg := range pkgs {
		allows[i] = buildAllowIndex(pkg.Fset, pkg.Files)
	}
	allowedAnywhere := func(rule string, pos token.Position) bool {
		for _, idx := range allows {
			if idx.allowed(rule, pos) {
				return true
			}
		}
		return false
	}
	for _, a := range analyzers {
		if a.Init == nil {
			continue
		}
		a.Init(&ModuleContext{
			Pkgs: pkgs,
			rule: a.Name,
			report: func(d Diagnostic) {
				if !allowedAnywhere(d.Rule, d.Pos) {
					diags = append(diags, d)
				}
			},
		})
	}
	for i, pkg := range pkgs {
		allow := allows[i]
		for _, a := range analyzers {
			if a.Run == nil || !a.appliesTo(pkg.Path) {
				continue
			}
			pass := &Pass{
				Fset:  pkg.Fset,
				Files: pkg.Files,
				Path:  pkg.Path,
				Pkg:   pkg.Types,
				Info:  pkg.Info,
				rule:  a.Name,
				report: func(d Diagnostic) {
					if !allow.allowed(d.Rule, d.Pos) {
						diags = append(diags, d)
					}
				},
			}
			a.Run(pass)
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

// allowIndex records, per rule, the source lines and function bodies
// covered by //jurylint:allow annotations in one package.
type allowIndex struct {
	// lines maps rule -> "file:line" keys where diagnostics are allowed.
	lines map[string]map[string]bool
	// spans maps rule -> file ranges (whole annotated functions).
	spans map[string][]span
}

type span struct {
	file       string
	start, end int // line range, inclusive
}

func buildAllowIndex(fset *token.FileSet, files []*ast.File) *allowIndex {
	idx := &allowIndex{
		lines: make(map[string]map[string]bool),
		spans: make(map[string][]span),
	}
	addLine := func(rule, file string, line int) {
		m := idx.lines[rule]
		if m == nil {
			m = make(map[string]bool)
			idx.lines[rule] = m
		}
		m[fmt.Sprintf("%s:%d", file, line)] = true
	}
	for _, f := range files {
		// Doc-comment annotations cover the whole function.
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil || fd.Body == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				for _, rule := range allowRules(c.Text) {
					start := fset.Position(fd.Pos())
					end := fset.Position(fd.Body.End())
					idx.spans[rule] = append(idx.spans[rule], span{
						file:  start.Filename,
						start: start.Line,
						end:   end.Line,
					})
				}
			}
		}
		// Every annotation also covers its own line and the next one,
		// handling both trailing and preceding comment placement.
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, rule := range allowRules(c.Text) {
					pos := fset.Position(c.Pos())
					addLine(rule, pos.Filename, pos.Line)
					addLine(rule, pos.Filename, pos.Line+1)
				}
			}
		}
	}
	return idx
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

func (idx *allowIndex) allowed(rule string, pos token.Position) bool {
	if idx.lines[rule][fmt.Sprintf("%s:%d", pos.Filename, pos.Line)] {
		return true
	}
	for _, s := range idx.spans[rule] {
		if s.file == pos.Filename && pos.Line >= s.start && pos.Line <= s.end {
			return true
		}
	}
	return false
}

// deref strips one level of pointer from t.
func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}
