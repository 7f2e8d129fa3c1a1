package arlo_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// unreachedGolden lists, one "pkg.Name<TAB>reason" per line, the
// declarations under internal/ that no binary reaches and that stay
// anyway. A change that adds a declaration only tests reach adds its line,
// with the reason, in the same commit.
const unreachedGolden = "testdata/unreached.txt"

// unreachedReasons are the reasons a declaration no binary reaches may
// stay for; each golden line's reason starts with one of them. A wrapper
// around a reached sibling has none.
var unreachedReasons = []string{
	"reference implementation that tests compare against",
	"read accessor over state a binary maintains",
	"documented contract value",
	"decision that stands",
}

// interfaceMethods are the methods this module declares that the standard
// library calls through its interfaces (fmt, errors, sort, container/heap,
// net/http, io, flag), so no expression in this module names the call.
var interfaceMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "Is": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"ServeHTTP": true, "Write": true, "Close": true, "Set": true,
}

// goSources lists the non-test Go files under roots that the default build
// context compiles, build constraints honoured, in walk order.
func goSources(roots ...string) ([]string, error) {
	var out []string
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			if ok, err := build.Default.MatchFile(filepath.Dir(path), d.Name()); err != nil || !ok {
				return err
			}
			out = append(out, path)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// srcImporter type-checks the module's packages (import path "arlo/<dir>")
// from their parsed sources, once each, recording every package into one
// Info; other imports come from the toolchain's export data.
type srcImporter struct {
	fset  *token.FileSet
	files map[string][]*ast.File // module import path -> its sources
	std   types.Importer
	info  *types.Info
	pkgs  map[string]*types.Package
}

func (im *srcImporter) Import(path string) (*types.Package, error) {
	files, ok := im.files[path]
	if !ok {
		return im.std.Import(path)
	}
	if p := im.pkgs[path]; p != nil {
		return p, nil
	}
	p, err := (&types.Config{Importer: im}).Check(path, im.fset, files, im.info)
	im.pkgs[path] = p
	return p, err
}

// exportImporter imports the given standard library packages from the
// export data one `go list -export` builds for all of them (asking per
// package, as importer.Default does, costs a go command each).
func exportImporter(fset *token.FileSet, paths []string) (types.Importer, error) {
	goCmd := filepath.Join(build.Default.GOROOT, "bin", "go")
	out, err := exec.Command(goCmd, append([]string{"list", "-export", "-f", "{{.ImportPath}} {{.Export}}"}, paths...)...).Output()
	if err != nil {
		return nil, err
	}
	exports := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		path, file, _ := strings.Cut(line, " ")
		exports[path] = file
	}
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) { return os.Open(exports[path]) }), nil
}

// module is the type-checked non-test sources under internal/, cmd/,
// examples/ and benchmark/: one Info over all of them, the module's
// import paths in walk order, and the standard library packages they
// import.
type module struct {
	im    *srcImporter
	paths []string
	std   []string
}

// loadModule type-checks the module once per test binary; the reach gate
// and the docs gate share the result.
var loadModule = sync.OnceValues(func() (*module, error) {
	srcs, err := goSources("internal", "cmd", "examples", "benchmark")
	if err != nil {
		return nil, err
	}
	m := &module{im: &srcImporter{
		fset: token.NewFileSet(), files: map[string][]*ast.File{}, pkgs: map[string]*types.Package{},
		info: &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
	}}
	im := m.im
	for _, src := range srcs {
		f, err := parser.ParseFile(im.fset, src, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		path := "arlo/" + filepath.ToSlash(filepath.Dir(src))
		if im.files[path] == nil {
			m.paths = append(m.paths, path)
		}
		im.files[path] = append(im.files[path], f)
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); !strings.HasPrefix(p, "arlo/") && !slices.Contains(m.std, p) {
				m.std = append(m.std, p)
			}
		}
	}
	if im.std, err = exportImporter(im.fset, m.std); err != nil {
		return nil, err
	}
	for _, path := range m.paths {
		if _, err := im.Import(path); err != nil {
			return nil, err
		}
	}
	return m, nil
})

// reachDecl is one top-level declaration: a function, a method, or one name
// of a type, var or const spec.
type reachDecl struct {
	id       string     // pkg.Name, or pkg.Recv.Name for a method
	internal bool       // declared under internal/
	refs     []ast.Node // what its references are read from
}

// TestEveryDeclarationReached type-checks the non-test sources under
// internal/, cmd/, examples/ and benchmark/, walks references from every
// main and init function (and the standard library's interface methods),
// and lists each top-level declaration under internal/ the walk never
// reaches. Each identifier is followed to the object it resolves to, a
// generic instance to its origin; a use of an interface method reaches
// that method on every module type that implements the interface. The list
// must equal the names in the golden file.
func TestEveryDeclarationReached(t *testing.T) {
	m, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	im := m.im
	decls := map[types.Object]*reachDecl{}
	var named []*types.Named // the module's non-generic, non-interface types
	var work []*reachDecl
	for _, path := range m.paths {
		for _, f := range im.files[path] {
			for obj, d := range declsOf(f, im.info, strings.HasPrefix(path, "arlo/internal/")) {
				decls[obj] = d
				switch obj := obj.(type) {
				case *types.Func:
					if obj.Type().(*types.Signature).Recv() == nil {
						if obj.Name() == "main" || obj.Name() == "init" {
							work = append(work, d)
						}
					} else if interfaceMethods[obj.Name()] {
						work = append(work, d)
					}
				case *types.TypeName:
					if n, ok := obj.Type().(*types.Named); ok && n.TypeParams().Len() == 0 && !types.IsInterface(n) {
						named = append(named, n)
					}
				}
			}
		}
	}
	reached := map[*reachDecl]bool{}
	for _, d := range work {
		reached[d] = true
	}
	reach := func(obj types.Object) {
		if d := decls[obj]; d != nil && !reached[d] {
			reached[d] = true
			work = append(work, d)
		}
	}
	dispatched := map[*types.Func]bool{}
	for len(work) > 0 {
		d := work[len(work)-1]
		work = work[:len(work)-1]
		for _, node := range d.refs {
			ast.Inspect(node, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				switch obj := im.info.Uses[id].(type) {
				case *types.Func:
					obj = obj.Origin()
					reach(obj)
					recv := obj.Type().(*types.Signature).Recv()
					if recv == nil || !types.IsInterface(recv.Type()) || dispatched[obj] {
						return true
					}
					dispatched[obj] = true
					iface := recv.Type().Underlying().(*types.Interface)
					for _, n := range named {
						if ptr := types.NewPointer(n); types.Implements(ptr, iface) {
							m, _, _ := types.LookupFieldOrMethod(ptr, false, obj.Pkg(), obj.Name())
							reach(m.(*types.Func).Origin())
						}
					}
				case types.Object:
					reach(obj)
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
		if !ok || !slices.ContainsFunc(unreachedReasons, func(r string) bool { return strings.HasPrefix(reason, r) }) {
			t.Errorf("%s: %q is not pkg.Name<TAB>reason, the reason one of unreachedReasons", unreachedGolden, line)
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

// declsOf lists one checked file's top-level declarations by the object
// each defines.
func declsOf(f *ast.File, info *types.Info, internal bool) map[types.Object]*reachDecl {
	out := map[types.Object]*reachDecl{}
	add := func(name *ast.Ident, refs ...ast.Node) {
		obj := info.Defs[name]
		id := obj.Pkg().Name() + "." + obj.Name()
		if fn, ok := obj.(*types.Func); ok {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				typ := recv.Type()
				if p, ok := typ.(*types.Pointer); ok {
					typ = p.Elem()
				}
				id = obj.Pkg().Name() + "." + typ.(*types.Named).Obj().Name() + "." + obj.Name()
			}
		}
		out[obj] = &reachDecl{id: id, internal: internal, refs: refs}
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			// A method's receiver is not a reference: a reached method does
			// not keep a type alive that nothing constructs.
			refs := []ast.Node{d.Type}
			if d.Body != nil {
				refs = append(refs, d.Body)
			}
			add(d.Name, refs...)
		case *ast.GenDecl:
			// A spec's own names are definitions, not uses.
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					add(s.Name, s)
				case *ast.ValueSpec:
					for _, n := range s.Names {
						add(n, s)
					}
				}
			}
		}
	}
	return out
}
