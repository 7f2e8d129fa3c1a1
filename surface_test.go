package arlo_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// surfaceGolden is the census of every value a caller can set, one per
// line. A change that adds a knob regenerates it in the same commit (the
// failure message prints the full current list) and names the two callers
// that need different values.
const surfaceGolden = "testdata/config-surface.txt"

// surfaceStructs are the settable structs whose names do not end in
// Config, Options or Policy.
var surfaceStructs = map[string]bool{
	"serve.Client": true, "serve.WireClient": true,
	"allocator.AutoScaler": true, "allocator.HeadroomScaler": true,
}

// flagKinds are the flag package's definition functions, less their Var
// suffix; flag.Var and flag.TextVar cut to "" and "Text".
var flagKinds = map[string]bool{
	"Bool": true, "Int": true, "Int64": true, "Uint": true, "Uint64": true, "String": true,
	"Float64": true, "Duration": true, "Func": true, "BoolFunc": true, "": true, "Text": true,
}

// TestConfigSurface lists, from the non-test sources under internal/ and
// cmd/ that the build compiles (goSources), every exported field of the settable structs, every exported
// top-level With* function and every flag definition, and compares the
// list with the golden file.
func TestConfigSurface(t *testing.T) {
	srcs, err := goSources("internal", "cmd")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, path := range srcs {
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, surfaceOf(filepath.ToSlash(filepath.Dir(path)), f)...)
	}
	slices.Sort(got)
	want, err := os.ReadFile(surfaceGolden)
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if slices.Equal(got, wantLines) {
		return
	}
	var diff []string
	for _, l := range wantLines {
		if !slices.Contains(got, l) {
			diff = append(diff, "- "+l)
		}
	}
	for _, l := range got {
		if !slices.Contains(wantLines, l) {
			diff = append(diff, "+ "+l)
		}
	}
	t.Errorf("the settable surface differs from %s:\n%s\n\nfull current list:\n%s",
		surfaceGolden, strings.Join(diff, "\n"), strings.Join(got, "\n"))
}

// surfaceOf lists one file's share of the surface: struct fields and With*
// functions as pkg.Name, flags as "<dir> -<flag>".
func surfaceOf(dir string, f *ast.File) []string {
	var out []string
	pkg := f.Name.Name
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() && strings.HasPrefix(d.Name.Name, "With") {
				out = append(out, pkg+"."+d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || !ts.Name.IsExported() {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				name := pkg + "." + ts.Name.Name
				if !ok || !(surfaceStructs[name] || strings.HasSuffix(name, "Config") ||
					strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Policy")) {
					continue
				}
				for _, field := range st.Fields.List {
					for _, id := range field.Names {
						if id.IsExported() {
							out = append(out, name+"."+id.Name)
						}
					}
				}
			}
		}
	}
	if !strings.HasPrefix(dir, "cmd/") {
		return out
	}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		kind, isVar := strings.CutSuffix(sel.Sel.Name, "Var")
		if x, ok := sel.X.(*ast.Ident); !ok || x.Name != "flag" || !flagKinds[kind] {
			return true
		}
		arg := 0
		if isVar {
			arg = 1 // flag.IntVar(&v, "name", ...)
		}
		if len(call.Args) <= arg {
			return true
		}
		if lit, ok := call.Args[arg].(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if name, err := strconv.Unquote(lit.Value); err == nil {
				out = append(out, dir+" -"+name)
			}
		}
		return true
	})
	return out
}
