package arlo_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// unreachedGolden lists, one "pkg.Name<TAB>reason" per line, the
// declarations under internal/ that no binary reaches and that stay
// anyway. A change that adds a declaration only tests reach adds its line,
// with the reason, in the same commit.
const unreachedGolden = "testdata/unreached.txt"

// interfaceMethods are the methods this module declares that the standard
// library calls through its interfaces (fmt, errors, sort, container/heap,
// net/http, io, flag), so no identifier in this module names the call.
var interfaceMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "Is": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"ServeHTTP": true, "Write": true, "Close": true, "Set": true,
}

// reachDecl is one top-level declaration: a function, a method, or one name
// of a type, var or const spec.
type reachDecl struct {
	id       string     // pkg.Name, or pkg.Recv.Name for a method
	internal bool       // declared under internal/
	refs     []ast.Node // what its references are read from: all but its own name
}

// TestEveryDeclarationReached walks identifier references from every main
// and init function (and the standard library's interface methods) in the
// non-test sources under internal/, cmd/, examples/ and benchmark/, and
// lists each top-level declaration under internal/ the walk never reaches.
// References are followed by name alone, so a name collision keeps a
// declaration alive: the list can miss dead code but never holds live code.
// The list must equal the names in the golden file.
func TestEveryDeclarationReached(t *testing.T) {
	var decls []*reachDecl
	for _, root := range []string{"internal", "cmd", "examples", "benchmark"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			decls = append(decls, declsOf(f, root == "internal")...)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	byName := map[string][]*reachDecl{}
	var work []*reachDecl
	for _, d := range decls {
		name := d.id[strings.LastIndexByte(d.id, '.')+1:]
		byName[name] = append(byName[name], d)
		if name == "main" || name == "init" || interfaceMethods[name] {
			work = append(work, d)
		}
	}
	reached := map[*reachDecl]bool{}
	for _, d := range work {
		reached[d] = true
	}
	for len(work) > 0 {
		d := work[len(work)-1]
		work = work[:len(work)-1]
		for _, node := range d.refs {
			ast.Inspect(node, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					for _, r := range byName[id.Name] {
						if !reached[r] {
							reached[r] = true
							work = append(work, r)
						}
					}
				}
				return true
			})
		}
	}
	var got []string
	for _, d := range decls {
		if d.internal && !reached[d] {
			got = append(got, d.id)
		}
	}
	slices.Sort(got)
	got = slices.Compact(got)

	raw, err := os.ReadFile(unreachedGolden)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, line := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n") {
		name, reason, ok := strings.Cut(line, "\t")
		if !ok || reason == "" {
			t.Errorf("%s: %q is not pkg.Name<TAB>reason", unreachedGolden, line)
		}
		want = append(want, name)
	}
	slices.Sort(want)
	if slices.Equal(got, want) {
		return
	}
	var diff []string
	for _, l := range want {
		if !slices.Contains(got, l) {
			diff = append(diff, "- "+l+" (reached now, or gone)")
		}
	}
	for _, l := range got {
		if !slices.Contains(want, l) {
			diff = append(diff, "+ "+l+" (only tests reach it: delete it, or add it with a reason)")
		}
	}
	t.Errorf("the unreached declarations differ from %s:\n%s\n\nfull current list:\n%s",
		unreachedGolden, strings.Join(diff, "\n"), strings.Join(got, "\n"))
}

// declsOf lists one file's top-level declarations.
func declsOf(f *ast.File, internal bool) []*reachDecl {
	pkg := f.Name.Name
	var out []*reachDecl
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			// A method's receiver is not a reference: a method reached by
			// name does not keep a type alive that nothing constructs.
			id := pkg + "." + d.Name.Name
			if d.Recv != nil {
				id = pkg + "." + recvName(d.Recv.List[0].Type) + "." + d.Name.Name
			}
			refs := []ast.Node{d.Type}
			if d.Body != nil {
				refs = append(refs, d.Body)
			}
			out = append(out, &reachDecl{id: id, internal: internal, refs: refs})
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					refs := []ast.Node{s.Type}
					if s.TypeParams != nil {
						refs = append(refs, s.TypeParams)
					}
					out = append(out, &reachDecl{id: pkg + "." + s.Name.Name, internal: internal, refs: refs})
				case *ast.ValueSpec:
					var refs []ast.Node
					if s.Type != nil {
						refs = append(refs, s.Type)
					}
					for _, v := range s.Values {
						refs = append(refs, v)
					}
					for _, n := range s.Names {
						out = append(out, &reachDecl{id: pkg + "." + n.Name, internal: internal, refs: refs})
					}
				}
			}
		}
	}
	return out
}

// recvName is a method receiver's type name, without pointer or type
// parameter.
func recvName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return recvName(x.X)
	case *ast.IndexExpr:
		return recvName(x.X)
	}
	return e.(*ast.Ident).Name
}
