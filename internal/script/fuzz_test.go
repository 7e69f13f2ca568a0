package script_test

import (
	"testing"

	"archadapt/internal/operators"
	"archadapt/internal/script"
)

// FuzzParseDefs: ParseDefs answers any text with definitions or an error,
// never a panic, and so does Compile. The seeds are the two scripts the
// operators package compiles (reached from an external test package:
// operators imports script) and the statement forms and error rows of
// script_test.go.
func FuzzParseDefs(f *testing.F) {
	f.Add(operators.FixLatencyScript)
	for _, src := range []string{
		`strategy fix(cli : ClientT) = { cli.poke(); commit repair; }`,
		`strategy fix(cli : ClientT) = { let x : float = 1 + 1; abort ModelError; }`,
		`strategy fix(cli : ClientT) = {
            let lat : set{ClientT} = cli.averageLatency; // annotated
            if (lat > maxLatency) { commit repair; } else if (answer() == 42) { commit; } else { abort Unreachable; }
        }
        tactic isBad(c : ClientT, n) : boolean = { return c.averageLatency > maxLatency; }`,
		`strategy fix(cli : ClientT) = {
            foreach g in select x : ServerGroupT in self.Components | x.load >= 0 { g.mark("a\"b\\c", 2,); }
        }`,
		``,
		`strategy = { }`,
		`strategy f() = { let ; }`,
		`strategy f() = { if true { } }`,
		`strategy f() = { foreach in x { } }`,
		`strategy f() = { commit repair }`,
		`strategy f() = { x.y(; }`,
		`strategy f() = { 5; }`,
		`strategy f(a : = { let s : set{ = "open`,
		`strategy réparer(c : ClientT) = { commit repair; }`, // a name is ASCII
		operators.ShrinkScript,
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		defs, err := script.ParseDefs(src)
		if err == nil && len(defs) == 0 {
			t.Fatalf("ParseDefs(%q) returned neither definitions nor an error", src)
		}
		if lib, err := script.Compile(src, script.OperatorSet{}); err == nil && lib == nil {
			t.Fatalf("Compile(%q) returned neither a library nor an error", src)
		}
	})
}
