package wrbpg_test

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestServingPathLayering: the packages that answer requests must not
// link the reference solvers. internal/exact is test ground truth and
// internal/memstate is the paper's Eq. 8 reproduction; neither is on
// any serving path, so neither may appear among the non-test imports
// of a serving package, directly or through another package of this
// module.
func TestServingPathLayering(t *testing.T) {
	serving := []string{
		"internal/anytime", "internal/solve", "internal/serve",
		"internal/serve/wire", "internal/cluster", "internal/schedcache",
	}
	forbidden := map[string]bool{
		"wrbpg/internal/exact":    true,
		"wrbpg/internal/memstate": true,
	}
	const module = "wrbpg/"
	// via[p] is the package through which p was first reached.
	via := map[string]string{}
	queue := []string{}
	for _, dir := range serving {
		via[module+dir] = ""
		queue = append(queue, module+dir)
	}
	for len(queue) > 0 {
		pkg := queue[0]
		queue = queue[1:]
		for _, imp := range nonTestImports(t, strings.TrimPrefix(pkg, module)) {
			if !strings.HasPrefix(imp, module) {
				continue
			}
			if forbidden[imp] {
				chain := []string{imp, pkg}
				for p := via[pkg]; p != ""; p = via[p] {
					chain = append(chain, p)
				}
				for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
					chain[i], chain[j] = chain[j], chain[i]
				}
				t.Errorf("serving package imports %s: %s", imp, strings.Join(chain, " → "))
				continue
			}
			if _, seen := via[imp]; !seen {
				via[imp] = pkg
				queue = append(queue, imp)
			}
		}
	}
}

// nonTestImports returns the distinct import paths of the non-test Go
// files in dir, relative to the module root, in sorted order.
func nonTestImports(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatalf("no Go files in %s", dir)
	}
	seen := map[string]bool{}
	fset := token.NewFileSet()
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		ast, err := parser.ParseFile(fset, f, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range ast.Imports {
			path, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			seen[path] = true
		}
	}
	out := make([]string, 0, len(seen))
	for path := range seen {
		out = append(out, path)
	}
	sort.Strings(out)
	return out
}
