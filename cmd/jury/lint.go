package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"github.com/jurysdn/jury/internal/analysis"
)

// runLint runs the determinism & concurrency lint suite over the module
// containing the working directory. It is stdlib-only and fully offline:
// packages are parsed with go/parser and type-checked with go/types,
// resolving the standard library through the source importer.
//
//	jury lint [-timing] [./...|import-path-suffix...]
//
// With no arguments (or `./...`) every package in the module is checked.
// Any other argument restricts output to packages whose import path ends
// with it; an argument that matches no package is an error. -timing runs
// the suite one analyzer at a time and prints each analyzer's wall time
// to stderr (diagnostics merge back into canonical order, so output is
// identical either way). Exit status: 0 clean, 1 diagnostics reported,
// 2 usage or load failure.
//
// Rules: wallclock, eventloop, guardedby, errcrit, maprange, vclockleak,
// errcritsync — see DESIGN.md "Determinism contract & lint rules".
// Suppress a deliberate violation with
// `//jurylint:allow <rule> -- justification`.
func runLint(_ context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("lint", flag.ContinueOnError)
	timing := fs.Bool("timing", false, "print per-analyzer wall time to stderr")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	root, err := analysis.FindModuleRoot(".")
	if err != nil {
		return usageError{err}
	}
	modPath, err := analysis.ModulePath(root)
	if err != nil {
		return usageError{err}
	}
	pkgs, err := analysis.LoadModule(root)
	if err != nil {
		return usageError{err}
	}
	if pkgs, err = filterPackages(pkgs, fs.Args()); err != nil {
		return err
	}
	suite := analysis.DefaultSuite(modPath)
	var diags []analysis.Diagnostic
	if *timing {
		diags = runTimed(pkgs, suite)
	} else {
		diags = analysis.RunAnalyzers(pkgs, suite)
	}
	if len(diags) == 0 {
		return nil
	}
	fmt.Fprint(stdout, analysis.Format(root, diags))
	return fmt.Errorf("%d violation(s)", len(diags))
}

// runTimed runs the suite one analyzer at a time, printing each
// analyzer's wall time to stderr, and merges the diagnostics back into
// the canonical position-then-rule order, so -timing never changes the
// reported output — only adds the per-pass cost breakdown CI logs.
//
//jurylint:allow wallclock -- timing instrumentation for the lint driver itself
func runTimed(pkgs []*analysis.Package, suite []*analysis.Analyzer) []analysis.Diagnostic {
	var diags []analysis.Diagnostic
	for _, a := range suite {
		start := time.Now()
		diags = append(diags, analysis.RunAnalyzers(pkgs, []*analysis.Analyzer{a})...)
		fmt.Fprintf(os.Stderr, "jurylint: %-12s %7.1f ms\n",
			a.Name, float64(time.Since(start).Microseconds())/1000)
	}
	analysis.SortDiagnostics(diags)
	return diags
}

// filterPackages applies command-line patterns: `./...` (or nothing)
// keeps everything, anything else matches import-path suffixes. A
// pattern that matches no package is a usage error, so a typo cannot
// pass as a clean run.
func filterPackages(pkgs []*analysis.Package, args []string) ([]*analysis.Package, error) {
	var patterns []string
	for _, a := range args {
		if a == "./..." || a == "..." || a == "." {
			return pkgs, nil
		}
		patterns = append(patterns, strings.TrimSuffix(strings.TrimPrefix(a, "./"), "/..."))
	}
	if len(patterns) == 0 {
		return pkgs, nil
	}
	var out []*analysis.Package
	matched := make([]bool, len(patterns))
	for _, p := range pkgs {
		hit := false
		for i, pat := range patterns {
			if p.Path == pat || strings.HasSuffix(p.Path, "/"+pat) || strings.Contains(p.Path, "/"+pat+"/") {
				matched[i], hit = true, true
			}
		}
		if hit {
			out = append(out, p)
		}
	}
	for i, ok := range matched {
		if !ok {
			return nil, usagef("pattern %q matches no package", args[i])
		}
	}
	return out, nil
}
