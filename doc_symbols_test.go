package colarm

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestDocSymbolsResolve holds the prose to the tree: what README.md,
// DESIGN.md and EXPERIMENTS.md name in backticks must exist, so deleted
// code cannot stay documented. Three kinds of name are checked:
//
//   - `pkg.Symbol` and `pkg.Type.Member`, where pkg is colarm or a
//     directory under internal/, is declared in that package — or is
//     one of BENCHMARK.json's per-layer metrics, which are spelled the
//     same way (`standing.diff_ms`);
//   - a colarm_* metric name occurs in a string literal of non-test
//     source (a name ending in "_" is a family and must prefix one);
//   - a `-flag` cited after colarm, colarm-bench, colarm-serve or
//     colarm-datagen is registered by that command's main.go, and a span
//     that starts with a flag names one of the first three's or of
//     benchmark/'s.
//
// ROADMAP.md and CHANGES.md are history and benchmark/README.md belongs
// to the benchmark, so none of them is read.
func TestDocSymbolsResolve(t *testing.T) {
	decls := map[string]map[string]bool{"colarm": packageDecls(t, ".")}
	dirs, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	var pkgNames []string
	for _, d := range dirs {
		if d.IsDir() {
			decls[d.Name()] = packageDecls(t, filepath.Join("internal", d.Name()))
			pkgNames = append(pkgNames, d.Name())
		}
	}
	symbolRE := regexp.MustCompile(`(^|[^\w/.-])(colarm|` + strings.Join(pkgNames, "|") +
		`)\.([A-Za-z_]\w*)(?:\.([A-Za-z_]\w*))?`)
	metrics := sourceMetricNames(t)
	layerMetrics := benchmarkLayerMetrics(t)

	// A flag cited without its command must belong to one of the
	// commands the prose describes or to benchmark/; colarm-datagen's
	// are cited with its name.
	flags, bareFlags := map[string]map[string]bool{}, map[string]bool{}
	for cmd, main := range map[string]string{
		"colarm":         "cmd/colarm/main.go",
		"colarm-bench":   "cmd/colarm-bench/main.go",
		"colarm-serve":   "cmd/colarm-serve/main.go",
		"colarm-datagen": "cmd/colarm-datagen/main.go",
		"benchmark":      "benchmark/main.go",
	} {
		flags[cmd] = commandFlags(t, main)
		if cmd != "colarm-datagen" {
			for f := range flags[cmd] {
				bareFlags[f] = true
			}
		}
	}

	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		t.Run(doc, func(t *testing.T) {
			text, err := os.ReadFile(doc)
			if err != nil {
				t.Fatal(err)
			}
			for _, span := range codeSpans(string(text)) {
				for _, m := range symbolRE.FindAllStringSubmatch(span, -1) {
					pkg, sym, member := m[2], m[3], m[4]
					if sym == "go" || layerMetrics[pkg+"."+sym] { // colarm.go is a file name
						continue
					}
					if !decls[pkg][sym] {
						t.Errorf("`%s.%s`: package %s declares no %s", pkg, sym, pkg, sym)
					} else if member != "" && decls[pkg][sym+"."] && !decls[pkg][sym+"."+member] {
						t.Errorf("`%s.%s.%s`: %s.%s has no field or method %s", pkg, sym, member, pkg, sym, member)
					}
				}
				for _, name := range metricRE.FindAllString(span, -1) {
					if !metricExists(metrics, name) {
						t.Errorf("metric `%s` is in no string literal of the non-test source", name)
					}
				}
				for _, m := range commandRE.FindAllStringSubmatch(span, -1) {
					for _, f := range flagRE.FindAllStringSubmatch(m[2], -1) {
						if !flags[m[1]][f[1]] {
							t.Errorf("`%s -%s`: cmd/%s/main.go registers no flag %q", m[1], f[1], m[1], f[1])
						}
					}
				}
				if f := leadingFlagRE.FindStringSubmatch(span); f != nil && !bareFlags[f[1]] {
					t.Errorf("`-%s`: neither colarm, colarm-bench, colarm-serve nor benchmark/ registers it", f[1])
				}
			}
		})
	}
}

var (
	metricRE = regexp.MustCompile(`\bcolarm_[a-z_]+`)
	// A command name, then everything up to the end of the line or a
	// shell separator: the stretch its flags are cited in.
	commandRE     = regexp.MustCompile(`(?:^|[\s/(])(colarm(?:-bench|-serve|-datagen)?)((?:[ \t]+[^\s|;&)]+)+)`)
	flagRE        = regexp.MustCompile(`(?:^|[\s\[])-([a-z][a-z0-9-]*)`)
	leadingFlagRE = regexp.MustCompile(`^-([a-z][a-z0-9-]*)`)
	fenceRE       = regexp.MustCompile("(?s)```[a-z]*\n(.*?)```")
	inlineRE      = regexp.MustCompile("`([^`]+)`")
)

// codeSpans returns what a Markdown text sets as code: every line of a
// fenced block and every inline span.
func codeSpans(text string) []string {
	var spans []string
	for _, m := range fenceRE.FindAllStringSubmatch(text, -1) {
		spans = append(spans, strings.Split(m[1], "\n")...)
	}
	for _, m := range inlineRE.FindAllStringSubmatch(fenceRE.ReplaceAllString(text, ""), -1) {
		spans = append(spans, strings.ReplaceAll(m[1], "\n", " "))
	}
	return spans
}

// packageDecls lists what the Go files of dir declare, test files
// included (the docs name benchmarks and tests too): "Name" for every
// top-level name, "Type." for every struct or interface type and for
// every type with methods, and "Type.Member" for their fields and
// methods. A type without a "Type." entry — an alias, say — has members
// this parse cannot see, so none is demanded of it.
func packageDecls(t *testing.T, dir string) map[string]bool {
	t.Helper()
	out := map[string]bool{}
	members := func(typ string, fields *ast.FieldList) {
		out[typ+"."] = true
		for _, f := range fields.List {
			for _, n := range f.Names {
				out[typ+"."+n.Name] = true
			}
		}
	}
	for _, file := range parsePackage(t, dir, nil) {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					out[d.Name.Name] = true
					continue
				}
				if recv := receiverType(d); recv != "" {
					out[recv+"."] = true
					out[recv+"."+d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range s.Names {
							out[n.Name] = true
						}
					case *ast.TypeSpec:
						out[s.Name.Name] = true
						switch typ := s.Type.(type) {
						case *ast.StructType:
							members(s.Name.Name, typ.Fields)
						case *ast.InterfaceType:
							members(s.Name.Name, typ.Methods)
						}
					}
				}
			}
		}
	}
	return out
}

// parsePackage parses the Go files of dir that filter admits (nil admits
// every file, tests included).
func parsePackage(t *testing.T, dir string, filter func(fs.FileInfo) bool) []*ast.File {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), dir, filter, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			files = append(files, file)
		}
	}
	return files
}

// receiverType names the type a method is declared on ("" for a
// receiver this parse cannot name).
func receiverType(d *ast.FuncDecl) string {
	recv := d.Recv.List[0].Type
	if star, ok := recv.(*ast.StarExpr); ok {
		recv = star.X
	}
	if id, ok := recv.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// benchmarkLayerMetrics lists the per-layer metric names BENCHMARK.json
// declares.
func benchmarkLayerMetrics(t *testing.T) map[string]bool {
	t.Helper()
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	for _, m := range decl.PerLayer {
		out[m.Name] = true
	}
	return out
}

// sourceMetricNames returns every colarm_* name spelled in a string
// literal of the root module's non-test Go source.
func sourceMetricNames(t *testing.T) map[string]bool {
	t.Helper()
	names := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (name == "benchmark" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				for _, name := range metricRE.FindAllString(lit.Value, -1) {
					names[name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// metricExists reports whether the source spells the metric name — or,
// for a family name ending in "_", a name that starts with it.
func metricExists(names map[string]bool, name string) bool {
	if !strings.HasSuffix(name, "_") {
		return names[name]
	}
	for n := range names {
		if strings.HasPrefix(n, name) {
			return true
		}
	}
	return false
}

// commandFlags lists the flag names a main.go registers through the
// flag package: the first string argument of flag.Int, flag.StringVar,
// flag.Var and the like.
func commandFlags(t *testing.T, path string) map[string]bool {
	t.Helper()
	file, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
			return true
		}
		for _, arg := range call.Args {
			if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if name, err := strconv.Unquote(lit.Value); err == nil {
					out[name] = true
				}
				break
			}
		}
		return true
	})
	return out
}
