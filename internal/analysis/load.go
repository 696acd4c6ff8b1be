package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package of the module under
// analysis.
type Package struct {
	Path  string // import path
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// ModulePath reads the module path from root/go.mod.
func ModulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s/go.mod", root)
}

// LoadModule parses and type-checks every non-test package under the
// module rooted at root. Test files are skipped: the contract applies to
// model and bridge code, and tests legitimately use wall time, goroutines
// and ad-hoc randomness. A module package is type-checked the first time
// another one imports it, or in directory order if none does; everything
// outside the module resolves through the standard library's offline
// source importer.
func LoadModule(root string) ([]*Package, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := ModulePath(root)
	if err != nil {
		return nil, err
	}
	dirs, err := packageDirs(root)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	imp := &moduleImporter{
		fset:    fset,
		root:    root,
		modPath: modPath,
		pkgs:    make(map[string]*Package),
		std:     importer.ForCompiler(fset, "source", nil),
	}
	var out []*Package
	for _, dir := range dirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		path := modPath
		if rel != "." {
			path = modPath + "/" + filepath.ToSlash(rel)
		}
		pkg, err := imp.load(path)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// LoadDir parses and type-checks a single directory as a standalone
// package under the given import path. Used by fixture tests.
func LoadDir(dir, path string) (*Package, error) {
	fset := token.NewFileSet()
	return loadPackage(fset, dir, path, importer.ForCompiler(fset, "source", nil))
}

// loadPackage parses dir's non-test files and type-checks them as the
// package at path, resolving its imports through imp.
func loadPackage(fset *token.FileSet, dir, path string, imp types.Importer) (*Package, error) {
	files, err := parseDir(fset, dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	conf := types.Config{Importer: imp, FakeImportC: true}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-check %s: %w", path, err)
	}
	return &Package{Path: path, Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}

// packageDirs lists directories under root that hold non-test Go files,
// skipping vendor, testdata and hidden/underscore directories.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "vendor" || name == "testdata" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if !e.IsDir() && isSourceFile(e.Name()) {
				dirs = append(dirs, path)
				break
			}
		}
		return nil
	})
	return dirs, err
}

func isSourceFile(name string) bool {
	return strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go")
}

func parseDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !isSourceFile(e.Name()) {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// moduleImporter type-checks a module package the first time it is
// imported and defers everything else to the offline source importer.
type moduleImporter struct {
	fset          *token.FileSet
	root, modPath string
	// pkgs holds every module package loaded so far; a nil entry is one
	// still being checked, so importing it again is a cycle.
	pkgs map[string]*Package
	std  types.Importer
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if !inModule(path, m.modPath) {
		return m.std.Import(path)
	}
	pkg, err := m.load(path)
	if err != nil {
		return nil, err
	}
	return pkg.Types, nil
}

// load returns the module package at path, type-checking it on first use.
func (m *moduleImporter) load(path string) (*Package, error) {
	if pkg, ok := m.pkgs[path]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("analysis: import cycle through %s", path)
		}
		return pkg, nil
	}
	m.pkgs[path] = nil
	rel := strings.TrimPrefix(strings.TrimPrefix(path, m.modPath), "/")
	pkg, err := loadPackage(m.fset, filepath.Join(m.root, filepath.FromSlash(rel)), path, m)
	if err != nil {
		return nil, err
	}
	m.pkgs[path] = pkg
	return pkg, nil
}
