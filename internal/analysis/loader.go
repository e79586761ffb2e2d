package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Loader type-checks module packages from source. Module-internal
// import paths are resolved against the module directory and loaded
// recursively (so every analyzer sees one consistent types.Package per
// import path, with full syntax for the whole module); everything else
// — the standard library — is delegated to the compiler's source
// importer. The loader is lazy and memoizing: each package is parsed
// and checked at most once per Loader.
type Loader struct {
	Fset *token.FileSet
	// ModuleDir is the absolute directory containing go.mod.
	ModuleDir string
	// ModulePath is the module path declared in go.mod ("natix").
	ModulePath string

	std     types.Importer
	pkgs    map[string]*Package
	loading map[string]bool
}

// A Package is one loaded, type-checked module package.
type Package struct {
	Path  string
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// Imports lists the package's direct imports (all of them, stdlib
	// included), for topological ordering and engine-set derivation.
	Imports []string
}

// NewLoader finds the enclosing module of dir and returns a loader for
// it.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	modDir, modPath, err := findModule(abs)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:       fset,
		ModuleDir:  modDir,
		ModulePath: modPath,
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       make(map[string]*Package),
		loading:    make(map[string]bool),
	}, nil
}

// findModule walks upward from dir to the first go.mod and returns its
// directory and declared module path.
func findModule(dir string) (string, string, error) {
	for d := dir; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("go.mod in %s has no module directive", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("no go.mod found above %s", dir)
		}
		d = parent
	}
}

// Load returns the module package with the given import path, loading
// it (and, recursively, its module-internal imports) on first use.
func (l *Loader) Load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	dir, ok := l.dirFor(path)
	if !ok {
		return nil, fmt.Errorf("%s is not a package of module %s", path, l.ModulePath)
	}
	return l.LoadDir(dir, path)
}

// LoadDir parses and type-checks the non-test Go files of dir,
// registering the result under importPath. Used directly by the fixture
// runner to load testdata packages under synthetic import paths.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	if pkg, ok := l.pkgs[importPath]; ok {
		return pkg, nil
	}
	if l.loading[importPath] {
		return nil, fmt.Errorf("import cycle through %s", importPath)
	}
	l.loading[importPath] = true
	defer delete(l.loading, importPath)

	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no buildable Go files in %s", dir)
	}

	var imports []string
	seen := make(map[string]bool)
	for _, f := range files {
		for _, imp := range f.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			if !seen[p] {
				seen[p] = true
				imports = append(imports, p)
			}
		}
	}
	sort.Strings(imports)

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: l,
		Error: func(err error) {
			typeErrs = append(typeErrs, err)
		},
	}
	tpkg, err := conf.Check(importPath, l.Fset, files, info)
	if err != nil && tpkg == nil {
		return nil, fmt.Errorf("type-checking %s: %w", importPath, err)
	}
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("type-checking %s: %w (and %d more)", importPath, typeErrs[0], len(typeErrs)-1)
	}

	pkg := &Package{
		Path:    importPath,
		Dir:     dir,
		Files:   files,
		Types:   tpkg,
		Info:    info,
		Imports: imports,
	}
	l.pkgs[importPath] = pkg
	return pkg, nil
}

// Import implements types.Importer: module-internal paths load through
// the Loader (one shared types.Package per path module-wide), all
// others through the compiler's source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if l.isModulePath(path) {
		pkg, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

func (l *Loader) isModulePath(path string) bool {
	return path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/")
}

// dirFor maps a module import path to its directory.
func (l *Loader) dirFor(path string) (string, bool) {
	if path == l.ModulePath {
		return l.ModuleDir, true
	}
	rest, ok := strings.CutPrefix(path, l.ModulePath+"/")
	if !ok {
		return "", false
	}
	return filepath.Join(l.ModuleDir, filepath.FromSlash(rest)), true
}

// parseDir parses the buildable non-test Go files of dir with comments
// (the suppression and annotation grammars live in comments).
func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || isTestFile(name) {
			continue
		}
		if strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		// Build constraints count: a package may keep a pair of files
		// behind a tag and its negation (buffer's race_on/race_off).
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}
