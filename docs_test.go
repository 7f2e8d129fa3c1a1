package arlo_test

import (
	"encoding/json"
	"fmt"
	"go/token"
	"go/types"
	"os"
	"path"
	"regexp"
	"strings"
	"testing"
)

// docFiles are the documents whose code names must resolve. ROADMAP.md,
// CHANGES.md and docs/pairs/ are history, and benchmark/README.md belongs
// to the benchmark module.
var docFiles = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

var (
	// codeSpan is one backticked span on a line.
	codeSpan = regexp.MustCompile("`([^`]+)`")
	// codeName is pkg.Name or pkg.Type.Member, not preceded by a name,
	// a dot or a slash.
	codeName = regexp.MustCompile(`(?:^|[^\w./])([a-z][a-z0-9]*)\.(\w+)(?:\.(\w+))?`)
	// modulePath is internal/<path>, up to a placeholder such as <id>.
	modulePath = regexp.MustCompile(`(?:^|[^\w./])(?:\./)?(internal/[\w./-]*)`)
	// makeRule is a Makefile rule's target list.
	makeRule = regexp.MustCompile(`(?m)^([\w-]+(?: [\w-]+)*):`)
)

// TestDocsResolve is the docs gate: every name the documents quote in
// backticks must still exist.
//   - pkg.Name and pkg.Type.Member, where pkg is a package of this module,
//     resolve in its type-checked sources. pkg.Name also resolves to a
//     method or field of one of pkg's types (`cluster.FailInstance`).
//   - Any other pkg.Exported must name a standard-library package the
//     module imports, and resolve there. So the names of a deleted package
//     fail too.
//   - internal/<path> exists, and every target of `make <targets>` (in a
//     span or on a fenced command line) is a Makefile rule.
//
// BENCHMARK.json's metric names (`cluster.submit_us`) are not Go names.
func TestDocsResolve(t *testing.T) {
	m, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	own, std := map[string][]*types.Package{}, map[string][]*types.Package{}
	for _, p := range m.paths {
		if strings.HasPrefix(p, "arlo/internal/") {
			pkg := m.im.pkgs[p]
			own[pkg.Name()] = append(own[pkg.Name()], pkg)
		}
	}
	for _, p := range m.std {
		pkg, err := m.im.std.Import(p)
		if err != nil {
			t.Fatal(err)
		}
		std[pkg.Name()] = append(std[pkg.Name()], pkg)
	}
	metrics := benchmarkMetrics(t)
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, rule := range makeRule.FindAllStringSubmatch(string(makefile), -1) {
		for _, tgt := range strings.Fields(rule[1]) {
			targets[tgt] = true
		}
	}

	for _, doc := range docFiles {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		fenced := false
		for i, line := range strings.Split(string(raw), "\n") {
			where := fmt.Sprintf("%s:%d", doc, i+1)
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
				continue
			}
			if fenced {
				cmd, _, _ := strings.Cut(strings.TrimPrefix(strings.TrimSpace(line), "$ "), "#")
				checkMake(t, where, cmd, targets)
				continue
			}
			for _, span := range codeSpan.FindAllStringSubmatch(line, -1) {
				code := span[1]
				checkMake(t, where, code, targets)
				for _, p := range modulePath.FindAllStringSubmatch(code, -1) {
					dir, _, _ := strings.Cut(p[1], "<")
					if _, err := os.Stat(path.Clean(strings.TrimRight(dir, "."))); err != nil {
						t.Errorf("%s: `%s` names %s, which does not exist", where, code, p[1])
					}
				}
				for _, n := range codeName.FindAllStringSubmatch(code, -1) {
					pkg, name, member := n[1], n[2], n[3]
					full := strings.TrimRight(pkg+"."+name+"."+member, ".")
					switch {
					case metrics[pkg+"."+name], name == "go": // a metric, or a file such as serve.go
					case len(own[pkg]) > 0:
						if !resolvesIn(own[pkg], name, member) {
							t.Errorf("%s: `%s` names %s, which does not resolve", where, code, full)
						}
					case !token.IsExported(name): // a variable's field, or a runtime symbol
					case len(std[pkg]) == 0:
						t.Errorf("%s: `%s` names %s, but %s is no package of this module or of its imports", where, code, full, pkg)
					case !resolvesIn(std[pkg], name, member):
						t.Errorf("%s: `%s` names %s, which does not resolve", where, code, full)
					}
				}
			}
		}
	}
}

// resolvesIn reports whether name, and member when given, resolve in one
// of pkgs: name at package level or as a field or method of one of the
// package's types, member as a field or method of the type name names.
func resolvesIn(pkgs []*types.Package, name, member string) bool {
	for _, pkg := range pkgs {
		scope := pkg.Scope()
		if obj := scope.Lookup(name); obj != nil {
			if member == "" {
				return true
			}
			if tn, ok := obj.(*types.TypeName); ok {
				if m, _, _ := types.LookupFieldOrMethod(tn.Type(), true, pkg, member); m != nil {
					return true
				}
			}
			continue
		}
		if member != "" {
			continue
		}
		for _, n := range scope.Names() {
			if tn, ok := scope.Lookup(n).(*types.TypeName); ok {
				if m, _, _ := types.LookupFieldOrMethod(tn.Type(), true, pkg, name); m != nil {
					return true
				}
			}
		}
	}
	return false
}

// checkMake fails the test for each target of a `make` command in code
// that the Makefile does not define.
func checkMake(t *testing.T, where, code string, targets map[string]bool) {
	t.Helper()
	fields := strings.Fields(code)
	if len(fields) == 0 || fields[0] != "make" {
		return
	}
	for _, f := range fields[1:] {
		if strings.HasPrefix(f, "-") || strings.Contains(f, "=") {
			continue
		}
		if !targets[f] {
			t.Errorf("%s: `%s` names make target %q, which the Makefile does not define", where, code, f)
		}
	}
}

// benchmarkMetrics returns BENCHMARK.json's metric names.
func benchmarkMetrics(t *testing.T) map[string]bool {
	t.Helper()
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		out[m.Name] = true
	}
	return out
}
