package colarm

import (
	"flag"
	"go/ast"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var updateAPI = flag.Bool("update-api", false, "rewrite testdata/api.txt from the source")

// TestAPIPinned holds package colarm's public surface to
// testdata/api.txt: every exported function, method, type, field,
// constant and variable of the non-test source, one line each with its
// signature, type or struct tag. A change that adds, removes or retypes
// an exported identifier fails here until the golden is rewritten with
// -update-api, so the diff of that file is the review of the change.
func TestAPIPinned(t *testing.T) {
	got := strings.Join(apiLines(t), "\n") + "\n"
	path := filepath.Join("testdata", "api.txt")
	if *updateAPI {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	have := map[string]bool{}
	for _, l := range strings.Split(got, "\n") {
		have[l] = true
	}
	pinned := map[string]bool{}
	for _, l := range strings.Split(string(want), "\n") {
		pinned[l] = true
		if !have[l] {
			t.Errorf("removed: %s", l)
		}
	}
	for _, l := range strings.Split(got, "\n") {
		if !pinned[l] {
			t.Errorf("added: %s", l)
		}
	}
}

// apiLines lists the exported declarations of the package's non-test
// source, sorted.
func apiLines(t *testing.T) []string {
	t.Helper()
	nonTest := func(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }
	var lines []string
	for _, file := range parsePackage(t, ".", nonTest) {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				sig := strings.TrimPrefix(types.ExprString(d.Type), "func")
				if d.Recv == nil {
					lines = append(lines, "func "+d.Name.Name+sig)
				} else if recv := types.ExprString(d.Recv.List[0].Type); ast.IsExported(strings.TrimPrefix(recv, "*")) {
					lines = append(lines, "method ("+recv+") "+d.Name.Name+sig)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								line := d.Tok.String() + " " + n.Name
								if s.Type != nil {
									line += " " + types.ExprString(s.Type)
								}
								lines = append(lines, line)
							}
						}
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							lines = append(lines, typeLines(s)...)
						}
					}
				}
			}
		}
	}
	sort.Strings(lines)
	return lines
}

// typeLines renders an exported type: its kind, then one line per
// exported field (tag included, the wire names ride on it) or interface
// method.
func typeLines(s *ast.TypeSpec) []string {
	name := s.Name.Name
	var fields *ast.FieldList
	head := "type " + name + " "
	if s.Assign.IsValid() {
		head += "= "
	}
	switch typ := s.Type.(type) {
	case *ast.StructType:
		fields, head = typ.Fields, head+"struct"
	case *ast.InterfaceType:
		fields, head = typ.Methods, head+"interface"
	default:
		head += types.ExprString(s.Type)
	}
	lines := []string{head}
	if fields == nil {
		return lines
	}
	for _, f := range fields.List {
		typ := types.ExprString(f.Type)
		tag := ""
		if f.Tag != nil {
			tag = " " + f.Tag.Value
		}
		if len(f.Names) == 0 {
			if ast.IsExported(typ[strings.LastIndex(typ, ".")+1:]) {
				lines = append(lines, "field "+name+" embeds "+typ+tag)
			}
			continue
		}
		for _, n := range f.Names {
			if n.IsExported() {
				lines = append(lines, "field "+name+"."+n.Name+" "+typ+tag)
			}
		}
	}
	return lines
}
