package archadapt

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestModuleIsSingleThreaded enforces the property CI relies on to run
// without the race detector: the simulator executes on one goroutine, so the
// non-test code of the root package, internal/ and cmd/ contains no go
// statement and imports neither sync nor sync/atomic. ARCHITECTURE.md "Why
// one thread" records the two measured attempts at parallelism.
func TestModuleIsSingleThreaded(t *testing.T) {
	const fix = "the module is single-threaded and CI runs no -race steps: restore the race CI steps in the same PR that adds concurrency"
	var files []string
	root, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, root...)
	for _, dir := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
				files = append(files, path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	fset := token.NewFileSet()
	checked := 0
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		checked++
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "sync" || p == "sync/atomic" {
				t.Errorf("%s imports %q — %s", fset.Position(imp.Pos()), p, fix)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				t.Errorf("%s: go statement — %s", fset.Position(g.Pos()), fix)
			}
			return true
		})
	}
	if checked < 50 {
		t.Fatalf("only %d files checked — run from the module root", checked)
	}
}
