package acme

import "testing"

// FuzzParse: Parse never panics, and what it accepts prints to a source that
// parses back to the same print.
func FuzzParse(f *testing.F) {
	f.Add(paperADL)
	f.Add(stringsADL)
	f.Add(`system s = { component a; connector c; property x = -2.5; invariant i : exists c in self.Components | c.x != nil; }`)
	f.Add(`system s = { component a = { port p = { property q = "` + "\x00\xff" + `"; } representation = { invariant deep on T : 1 < 2; } } }`)
	f.Add(`system café = { component naïve; }`) // a name is ASCII
	f.Fuzz(func(t *testing.T, src string) {
		d, err := Parse(src)
		if err != nil {
			return
		}
		printed := Print(d)
		d2, err := Parse(printed)
		if err != nil {
			t.Fatalf("%q printed as\n%s\nwhich does not parse: %v", src, printed, err)
		}
		if again := Print(d2); again != printed {
			t.Fatalf("%q printed as\n%s\nand then as\n%s", src, printed, again)
		}
	})
}
