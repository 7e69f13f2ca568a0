package constraint

import (
	"fmt"
	"strings"
	"testing"
)

// TestLex pins the token stream, kind and byte offset, for the lexical rules
// the three grammars share. Words and digits are ASCII: lexing stops with a
// Bad token at the first byte outside ASCII, whether it starts a word or
// would continue one, and a non-ASCII string literal is still a string.
func TestLex(t *testing.T) {
	show := func(toks []Token) string {
		var b strings.Builder
		for _, tok := range toks {
			switch tok.Kind {
			case EOF:
				fmt.Fprintf(&b, "EOF@%d", tok.Pos)
			case Bad:
				fmt.Fprintf(&b, "Bad@%d ", tok.Pos)
			default:
				fmt.Fprintf(&b, "%s@%d ", tok.Text, tok.Pos)
			}
		}
		return b.String()
	}
	for _, tc := range []struct{ src, want string }{
		{"a_1 <= 2.5e3 // note", "a_1@0 <=@4 2.5e3@7 EOF@20"},
		{"_x.y9 != .5", "_x@0 .@2 y9@3 !=@6 .5@9 EOF@11"},
		{`l == "café"`, "l@0 ==@2 café@5 EOF@12"},
		{"café", "caf@0 Bad@3 EOF@5"}, // UTF-8 é is two bytes; the first stops the word
		{"\xe9t\xe9", "Bad@0 EOF@3"},  // Latin-1 é is not a letter either
		{"x٣ > 1", "x@0 Bad@1 EOF@7"}, // nor is an Arabic-Indic digit a digit
		{"1 + @", "1@0 +@2 Bad@4 EOF@5"},
	} {
		if got := show(Lex(tc.src)); got != tc.want {
			t.Errorf("Lex(%q) = %s, want %s", tc.src, got, tc.want)
		}
	}
	if bad := Lex("café")[1]; bad.Text != `unexpected byte "\xc3"` {
		t.Errorf("diagnostic %q", bad.Text)
	}
}
