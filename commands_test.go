package archadapt

import (
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// TestEveryCommandIsExercised: a command earns its directory under cmd/ only
// if something runs it — a _test.go file beside it, or a CI step that runs
// `go run ./cmd/NAME`. A command that CI only compiles can break unnoticed.
func TestEveryCommandIsExercised(t *testing.T) {
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	commands := 0
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		commands++
		name := d.Name()
		tests, err := filepath.Glob(filepath.Join("cmd", name, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		runByCI := regexp.MustCompile(`go run \./cmd/` + regexp.QuoteMeta(name) + `(\s|$)`).Match(ci)
		if len(tests) == 0 && !runByCI {
			t.Errorf("cmd/%s has no test and no CI step runs it: add a main_test.go, run it in .github/workflows/ci.yml, or delete it", name)
		}
	}
	if commands == 0 {
		t.Fatal("no commands found — run from the module root")
	}
}
