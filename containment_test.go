package colarm

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// goSites are the functions of the module's non-test code allowed a go
// statement, each with what contains a panic on the goroutine it starts.
// A new site needs the same review before it joins the list: a panic on
// a goroutine nothing recovers ends the whole process.
var goSites = map[string]string{
	"internal/pool/pool.go:Run":                     "each worker recovers through Catch; Run joins them and returns the panic",
	"internal/server/server.go:Server.handleIngest": "the background rebuild runs the rebuild through pool.Catch; Close waits for it",
	"internal/standing/standing.go:NewManager":      "the diff worker runs each tracker pass through pool.Catch; Close stops it",
	"cmd/colarm-serve/main.go:run":                  "ListenAndServe; net/http recovers a panic in a handler",
}

// TestGoStatementsContained holds every go statement of the module's
// non-test code outside benchmark/ to a site in goSites, and every site
// in goSites to exactly one go statement.
func TestGoStatementsContained(t *testing.T) {
	found := map[string]int{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (path == "benchmark" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			site := filepath.ToSlash(path) + ":" + declName(decl)
			ast.Inspect(decl, func(n ast.Node) bool {
				if _, ok := n.(*ast.GoStmt); ok {
					found[site]++
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for site, n := range found {
		if _, ok := goSites[site]; !ok {
			t.Errorf("%s starts %d goroutine(s) at a site goSites does not list: contain a panic on it, then add the site", site, n)
		}
	}
	for site := range goSites {
		if n := found[site]; n != 1 {
			t.Errorf("%s: %d go statements, want the 1 goSites lists", site, n)
		}
	}
}

// declName names a top-level declaration as goSites does: a function,
// or a method as Type.Method; "" for anything else.
func declName(decl ast.Decl) string {
	fn, ok := decl.(*ast.FuncDecl)
	if !ok {
		return ""
	}
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	typ := fn.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name + "." + fn.Name.Name
	}
	return fn.Name.Name
}
