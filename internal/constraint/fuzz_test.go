package constraint

import "testing"

// FuzzParse: Parse never panics, and what it accepts prints to a source that
// parses back to the same print.
func FuzzParse(f *testing.F) {
	for _, src := range fixpointSrcs {
		f.Add(src)
	}
	f.Add("select one c in x.y | !(-c.z <= 1e-3) or size(c.Ports) / 2 == 0")
	f.Add(`"\x00é\"`)
	f.Add("((a = b")
	f.Add("café <= 1") // a word is ASCII: lexing stops at the first byte of é
	f.Fuzz(func(t *testing.T, src string) {
		e, err := Parse(src)
		if err != nil {
			return
		}
		printed := e.String()
		e2, err := Parse(printed)
		if err != nil {
			t.Fatalf("%q printed as %q, which does not parse: %v", src, printed, err)
		}
		if e2.String() != printed {
			t.Fatalf("%q printed as %q and then as %q", src, printed, e2.String())
		}
	})
}
