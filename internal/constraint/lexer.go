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
