package constraint

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind classifies a Token.
type Kind int

const (
	EOF    Kind = iota // always the last token
	Ident              // a word; which words are reserved is each grammar's business
	Number             // Num holds the value
	String             // Text holds the unquoted value
	Punct              // < <= > >= == != = ! + - * / ( ) { } ; , . | :
	Bad                // Text holds the diagnostic; lexing stops here, only EOF follows
)

// Token is one lexical element. The constraint language, the repair scripts
// and the Acme descriptions that embed it all read the stream Lex produces.
type Token struct {
	Kind Kind
	Text string
	Num  float64
	Pos  int // byte offset in the source
	Line int // 1-based
}

// String renders the token for a diagnostic.
func (t Token) String() string {
	switch t.Kind {
	case EOF:
		return "end of input"
	case Bad:
		return t.Text
	}
	return strconv.Quote(t.Text)
}

// Is reports whether the token is the word or punctuation text; a string
// literal spelled the same is not.
func (t Token) Is(text string) bool {
	return t.Text == text && (t.Kind == Punct || t.Kind == Ident)
}

// Lex tokenizes src. It does not fail: what cannot be a token becomes a Bad
// token, which no grammar accepts, so the parser that meets it reports it
// with its line like any other unexpected token. Words and numbers are ASCII:
// a word is [A-Za-z_][A-Za-z0-9_]*, a digit is 0-9, and outside strings and
// comments the first byte above 0x7f is Bad. `//` starts a comment that
// runs to the end of the line. A string literal is read by the rule that
// inverts strconv.Quote, which is what Value.String and the Acme printer
// write; an escape Go does not know is Bad, and so is a raw newline.
func Lex(src string) []Token {
	toks := make([]Token, 0, len(src)/8+2) // a token per eight bytes: one allocation for a typical invariant
	line := 1
	emit := func(k Kind, text string, pos int) {
		toks = append(toks, Token{Kind: k, Text: text, Pos: pos, Line: line})
	}
	i, n := 0, len(src)
scan:
	for i < n {
		c := src[i]
		switch {
		case c == '\n':
			line++
			i++
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == '/' && i+1 < n && src[i+1] == '/':
			for i < n && src[i] != '\n' {
				i++
			}
		case isDigit(c) || (c == '.' && i+1 < n && isDigit(src[i+1])):
			j := i
			seenDot, seenExp := false, false
			for j < n {
				d := src[j]
				if isDigit(d) {
					j++
					continue
				}
				if d == '.' && !seenDot && !seenExp {
					seenDot = true
					j++
					continue
				}
				if (d == 'e' || d == 'E') && !seenExp {
					seenExp = true
					j++
					if j < n && (src[j] == '+' || src[j] == '-') {
						j++
					}
					continue
				}
				break
			}
			f, err := strconv.ParseFloat(src[i:j], 64)
			if err != nil {
				emit(Bad, fmt.Sprintf("bad number %q", src[i:j]), i)
				break scan
			}
			toks = append(toks, Token{Kind: Number, Text: src[i:j], Num: f, Pos: i, Line: line})
			i = j
		case c == '"':
			j := i + 1
			for j < n && src[j] != '"' && src[j] != '\n' {
				if src[j] == '\\' {
					j++
				}
				j++
			}
			if j >= n || src[j] != '"' {
				emit(Bad, "unterminated string", i)
				break scan
			}
			s, err := strconv.Unquote(src[i : j+1])
			if err != nil {
				emit(Bad, "bad escape in string "+src[i:j+1], i)
				break scan
			}
			emit(String, s, i)
			i = j + 1
		case isLetter(c):
			j := i
			for j < n && (isLetter(src[j]) || isDigit(src[j])) {
				j++
			}
			emit(Ident, src[i:j], i)
			i = j
		case (c == '<' || c == '>' || c == '=' || c == '!') && i+1 < n && src[i+1] == '=':
			emit(Punct, src[i:i+2], i)
			i += 2
		case strings.IndexByte("<>=!+-*/(){};,.|:", c) >= 0:
			emit(Punct, src[i:i+1], i)
			i++
		default:
			emit(Bad, fmt.Sprintf("unexpected byte %q", src[i:i+1]), i)
			break scan
		}
	}
	emit(EOF, "", n)
	return toks
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// isLetter reports whether c may start a word: an ASCII letter or '_'.
func isLetter(c byte) bool { return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || c == '_' }

// Cursor walks the token stream of one source for the three grammars: the
// expression grammar here, the script and the Acme grammars embed one in
// their parser. Its errors name the surface and the line of the current
// token (`script:3: …`); a cursor with no name, the expression grammar's,
// gives bare messages that Parse places by byte offset.
type Cursor struct {
	name  string
	toks  []Token
	i     int
	depth int // levels open around the current one
}

// NewCursor lexes src for the surface called name.
func NewCursor(name, src string) Cursor { return Cursor{name: name, toks: Lex(src)} }

// Peek returns the current token.
func (c *Cursor) Peek() Token { return c.toks[c.i] }

// Peek2 returns the token after the current one; past EOF it is EOF again.
func (c *Cursor) Peek2() Token { return c.toks[min(c.i+1, len(c.toks)-1)] }

// Next consumes any token but the closing EOF, so a parse that runs off the
// end of the source keeps meeting it.
func (c *Cursor) Next() Token {
	t := c.toks[c.i]
	if t.Kind != EOF {
		c.i++
	}
	return t
}

// Accept consumes the current token if it is the word or punctuation text.
func (c *Cursor) Accept(text string) bool {
	if c.Peek().Is(text) {
		c.i++
		return true
	}
	return false
}

// Expect consumes the word or punctuation text or reports what stands there.
func (c *Cursor) Expect(text string) error {
	if !c.Accept(text) {
		return c.Errorf("expected %q, found %s", text, c.Peek())
	}
	return nil
}

// Word consumes a word; what names the thing expected in the error.
func (c *Cursor) Word(what string) (string, error) {
	t := c.Peek()
	if t.Kind != Ident {
		return "", c.Errorf("expected %s, found %s", what, t)
	}
	c.i++
	return t.Text, nil
}

// Errorf reports a message at the line of the current token.
func (c *Cursor) Errorf(format string, args ...any) error {
	if c.name == "" {
		return fmt.Errorf(format, args...)
	}
	return fmt.Errorf("%s:%d: %s", c.name, c.Peek().Line, fmt.Sprintf(format, args...))
}

// MaxNesting bounds how deep any of the three grammars may nest, so that
// text from outside the program cannot grow the stack until the runtime
// kills the process: a megabyte of "(" did.
const MaxNesting = 10000

// Descend counts one level of nesting, which the caller defers Ascend to
// take off again; what names the levels in the error.
func (c *Cursor) Descend(what string) error {
	if c.depth++; c.depth > MaxNesting {
		return c.Errorf("%s nested deeper than %d", what, MaxNesting)
	}
	return nil
}

// Ascend takes off the level Descend counted.
func (c *Cursor) Ascend() { c.depth-- }

// List parses the rest of a comma-separated list whose opener the caller
// consumed: at once the closer, or items with a comma between each two and
// the closer after the last. It is the one list rule of the three grammars,
// so a missing comma and a trailing one are errors wherever a list stands.
func (c *Cursor) List(closer string, item func() error) error {
	if c.Accept(closer) {
		return nil
	}
	for {
		if err := item(); err != nil {
			return err
		}
		if !c.Accept(",") {
			return c.Expect(closer)
		}
	}
}
