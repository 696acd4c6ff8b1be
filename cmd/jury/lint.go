package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"strings"

	"github.com/jurysdn/jury/internal/analysis"
)

// runLint runs the determinism & concurrency lint suite over the module
// containing the working directory. It is stdlib-only and fully offline:
// packages are parsed with go/parser and type-checked with go/types,
// resolving the standard library through the source importer.
//
//	jury lint [./...|import-path-suffix...]
//
// With no arguments (or `./...`) every package in the module is checked.
// Any other argument restricts output to packages whose import path ends
// with it; an argument that matches no package is an error. Exit status:
// 0 clean, 1 diagnostics reported, 2 usage or load failure.
//
// Rules: wallclock, eventloop, errcrit, maprange, errcritsync — see
// DESIGN.md "Determinism contract & lint rules". Lock discipline is not a
// lint rule: the -race tests hold it (`make race`).
// Suppress a deliberate violation with
// `//jurylint:allow <rule> -- justification`.
func runLint(_ context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("lint", flag.ContinueOnError)
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
	diags := analysis.RunAnalyzers(pkgs, analysis.DefaultSuite(modPath))
	if len(diags) == 0 {
		return nil
	}
	fmt.Fprint(stdout, analysis.Format(root, diags))
	return fmt.Errorf("%d violation(s)", len(diags))
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
