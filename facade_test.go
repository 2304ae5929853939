package texcache_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// facadeExports returns the exported top-level identifiers declared in
// texcache.go: types, constants, variables and functions.
func facadeExports(t *testing.T) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "texcache.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				names = append(names, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						names = append(names, s.Name.Name)
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							names = append(names, n.Name)
						}
					}
				}
			}
		}
	}
	return names
}

// facadeReferences returns every texcache.X selector used by non-test Go
// files under dir, keyed by X.
func facadeReferences(t *testing.T, dir string, refs map[string]bool) {
	t.Helper()
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		local := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "texcache" {
				local = "texcache"
				if imp.Name != nil {
					local = imp.Name.Name
				}
			}
		}
		if local == "" {
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok && id.Name == local {
					refs[sel.Sel.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFacadeExportsAreUsed keeps the root package a facade for its
// programs rather than a second copy of the internal API: every exported
// identifier in texcache.go must be referenced by non-test code under
// cmd/, examples/ or perfbench/. Tests reach internals directly.
func TestFacadeExportsAreUsed(t *testing.T) {
	refs := map[string]bool{}
	for _, dir := range []string{"cmd", "examples", "perfbench"} {
		facadeReferences(t, dir, refs)
	}
	exports := facadeExports(t)
	if len(exports) == 0 {
		t.Fatal("parsed no exported identifiers from texcache.go")
	}
	var unused []string
	for _, name := range exports {
		if !refs[name] {
			unused = append(unused, name)
		}
	}
	sort.Strings(unused)
	if len(unused) > 0 {
		t.Errorf("%d of %d facade exports have no caller in cmd/, examples/ or perfbench/: %s",
			len(unused), len(exports), strings.Join(unused, " "))
	}
}
