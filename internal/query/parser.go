package query

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"logstore/internal/index/inverted"
	"logstore/internal/index/sma"
	"logstore/internal/schema"
)

// Parse parses the LogStore SQL subset:
//
//	SELECT * | COUNT(*) | col[, col...]
//	FROM table
//	[WHERE pred AND pred ...]
//	[GROUP BY col] [ORDER BY col|COUNT(*) [ASC|DESC]] [LIMIT n]
//
// where pred is `col (=|!=|<>|<|<=|>|>=) literal` or `col MATCH 'text'`.
// Literals are single-quoted strings or decimal integers.
func Parse(sql string) (*Query, error) {
	toks, err := tokenize(sql)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	q, err := p.parseQuery()
	if err != nil {
		return nil, fmt.Errorf("query: parse %q: %w", sql, err)
	}
	return q, nil
}

type tokKind uint8

const (
	tokIdent tokKind = iota
	tokString
	tokNumber
	tokSymbol // punctuation and operators
	tokEOF
)

type token struct {
	kind tokKind
	text string // normalized: idents lowercased, symbols literal
	raw  string
}

// tokenize splits sql into tokens without copying it where it can: an
// identifier already in lower case, a keyword in any case, a string
// literal without an escaped (doubled) quote, a number and a symbol are
// all substrings of sql or constants.
func tokenize(sql string) ([]token, error) {
	toks := make([]token, 0, len(sql)/4+2)
	i := 0
	for i < len(sql) {
		c := sql[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '\'':
			text, j, err := stringLiteral(sql, i)
			if err != nil {
				return nil, err
			}
			toks = append(toks, token{kind: tokString, text: text, raw: sql[i:j]})
			i = j
		case c == '-' || (c >= '0' && c <= '9'):
			j := i + 1
			for j < len(sql) && sql[j] >= '0' && sql[j] <= '9' {
				j++
			}
			if j == i+1 && c == '-' {
				return nil, fmt.Errorf("stray '-'")
			}
			toks = append(toks, token{kind: tokNumber, text: sql[i:j], raw: sql[i:j]})
			i = j
		case isIdentStart(rune(c)):
			j := i + 1
			for j < len(sql) && isIdentPart(rune(sql[j])) {
				j++
			}
			toks = append(toks, token{kind: tokIdent, text: lowerIdent(sql[i:j]), raw: sql[i:j]})
			i = j
		case strings.IndexByte("=<>!,*()", c) >= 0:
			// Two-char operators first.
			n := 1
			if i+1 < len(sql) {
				if two := sql[i : i+2]; two == "<=" || two == ">=" || two == "!=" || two == "<>" {
					n = 2
				}
			}
			toks = append(toks, token{kind: tokSymbol, text: sql[i : i+n], raw: sql[i : i+n]})
			i += n
		default:
			return nil, fmt.Errorf("unexpected character %q", c)
		}
	}
	return append(toks, token{kind: tokEOF}), nil
}

// stringLiteral reads the quoted literal opening at sql[i], returning
// its text and the offset just past the closing quote. Only a literal
// with an escaped (doubled) quote is copied.
func stringLiteral(sql string, i int) (text string, end int, err error) {
	var sb strings.Builder
	from := i + 1 // start of the run not yet in sb
	for j := i + 1; j < len(sql); j++ {
		if sql[j] != '\'' {
			continue
		}
		if j+1 < len(sql) && sql[j+1] == '\'' { // '' escapes a quote
			sb.WriteString(sql[from : j+1])
			j++
			from = j + 1
			continue
		}
		if from == i+1 { // nothing escaped
			return sql[i+1 : j], j + 1, nil
		}
		sb.WriteString(sql[from:j])
		return sb.String(), j + 1, nil
	}
	return "", 0, fmt.Errorf("unterminated string literal")
}

// keywords are the words the parser accepts, so that an identifier
// spelling one in any case lowers to a constant instead of a copy.
var keywords = []string{"select", "from", "where", "and", "match", "group", "order", "by", "count", "asc", "desc", "limit"}

// lowerIdent returns strings.ToLower(s), without allocating when s is
// already lower case or is a keyword. (At equal lengths EqualFold with
// an ASCII word holds only for ASCII s, where it is ToLower's answer.)
func lowerIdent(s string) string {
	for _, kw := range keywords {
		if len(kw) == len(s) && strings.EqualFold(kw, s) {
			return kw
		}
	}
	return strings.ToLower(s)
}

func isIdentStart(r rune) bool { return unicode.IsLetter(r) || r == '_' }
func isIdentPart(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '.'
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) accept(kind tokKind, text string) bool {
	t := p.peek()
	if t.kind == kind && t.text == text {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectIdent(word string) error {
	if !p.accept(tokIdent, word) {
		return fmt.Errorf("expected %s, got %q", strings.ToUpper(word), p.peek().raw)
	}
	return nil
}

func (p *parser) parseQuery() (*Query, error) {
	q := &Query{}
	if err := p.expectIdent("select"); err != nil {
		return nil, err
	}
	if err := p.parseSelectList(q); err != nil {
		return nil, err
	}
	if err := p.expectIdent("from"); err != nil {
		return nil, err
	}
	tbl := p.next()
	if tbl.kind != tokIdent {
		return nil, fmt.Errorf("expected table name, got %q", tbl.raw)
	}
	q.Table = tbl.text

	if p.accept(tokIdent, "where") {
		for {
			pred, err := p.parsePred()
			if err != nil {
				return nil, err
			}
			q.Preds = append(q.Preds, pred)
			if !p.accept(tokIdent, "and") {
				break
			}
		}
	}
	if p.accept(tokIdent, "group") {
		if err := p.expectIdent("by"); err != nil {
			return nil, err
		}
		col := p.next()
		if col.kind != tokIdent {
			return nil, fmt.Errorf("expected GROUP BY column, got %q", col.raw)
		}
		q.GroupBy = col.text
	}
	if p.accept(tokIdent, "order") {
		if err := p.expectIdent("by"); err != nil {
			return nil, err
		}
		t := p.next()
		switch {
		case t.kind == tokIdent && t.text == "count":
			// Allow ORDER BY COUNT(*) spelled with parens.
			if p.accept(tokSymbol, "(") {
				if !p.accept(tokSymbol, "*") || !p.accept(tokSymbol, ")") {
					return nil, fmt.Errorf("expected COUNT(*)")
				}
			}
			q.OrderBy = "count"
		case t.kind == tokIdent:
			q.OrderBy = t.text
		default:
			return nil, fmt.Errorf("expected ORDER BY target, got %q", t.raw)
		}
		if p.accept(tokIdent, "desc") {
			q.Desc = true
		} else {
			p.accept(tokIdent, "asc")
		}
	}
	if p.accept(tokIdent, "limit") {
		t := p.next()
		if t.kind != tokNumber {
			return nil, fmt.Errorf("expected LIMIT count, got %q", t.raw)
		}
		n, err := strconv.Atoi(t.text)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("bad LIMIT %q", t.raw)
		}
		q.Limit = n
	}
	if p.peek().kind != tokEOF {
		return nil, fmt.Errorf("trailing input at %q", p.peek().raw)
	}
	return q, nil
}

func (p *parser) parseSelectList(q *Query) error {
	if p.accept(tokSymbol, "*") {
		q.Star = true
		return nil
	}
	if p.accept(tokIdent, "count") {
		if !p.accept(tokSymbol, "(") || !p.accept(tokSymbol, "*") || !p.accept(tokSymbol, ")") {
			return fmt.Errorf("expected COUNT(*)")
		}
		q.CountStar = true
		return nil
	}
	for {
		t := p.next()
		if t.kind != tokIdent {
			return fmt.Errorf("expected column name, got %q", t.raw)
		}
		// The BI form "SELECT key, COUNT(*) ... GROUP BY key".
		if t.text == "count" && p.accept(tokSymbol, "(") {
			if !p.accept(tokSymbol, "*") || !p.accept(tokSymbol, ")") {
				return fmt.Errorf("expected COUNT(*)")
			}
			q.CountStar = true
		} else {
			q.Select = append(q.Select, t.text)
		}
		if !p.accept(tokSymbol, ",") {
			return nil
		}
	}
}

var opTable = map[string]sma.Op{
	"=": sma.EQ, "!=": sma.NE, "<>": sma.NE,
	"<": sma.LT, "<=": sma.LE, ">": sma.GT, ">=": sma.GE,
}

func (p *parser) parsePred() (Pred, error) {
	col := p.next()
	if col.kind != tokIdent {
		return Pred{}, fmt.Errorf("expected column name, got %q", col.raw)
	}
	if p.accept(tokIdent, "match") {
		lit := p.next()
		if lit.kind != tokString {
			return Pred{}, fmt.Errorf("MATCH needs a string literal, got %q", lit.raw)
		}
		// A word with a trailing '*' is a prefix query; everything else
		// analyzes into exact terms.
		var terms, prefixes []string
		for _, word := range strings.Fields(lit.text) {
			if strings.HasSuffix(word, "*") && len(word) > 1 {
				toks := inverted.Tokenize(strings.TrimSuffix(word, "*"))
				if len(toks) > 0 {
					// Tokens before the last are exact; the last carries
					// the prefix semantics ("api/v1*" → api AND v1*).
					terms = append(terms, toks[:len(toks)-1]...)
					prefixes = append(prefixes, toks[len(toks)-1])
				}
				continue
			}
			terms = append(terms, inverted.Tokenize(word)...)
		}
		if len(terms) == 0 && len(prefixes) == 0 {
			return Pred{}, fmt.Errorf("MATCH text %q has no terms", lit.text)
		}
		return Pred{Col: col.text, Match: true, Terms: terms, Prefixes: prefixes}, nil
	}
	opTok := p.next()
	op, ok := opTable[opTok.text]
	if opTok.kind != tokSymbol || !ok {
		return Pred{}, fmt.Errorf("expected comparison operator, got %q", opTok.raw)
	}
	lit := p.next()
	switch lit.kind {
	case tokString:
		return Pred{Col: col.text, Op: op, Val: schema.StringValue(lit.text)}, nil
	case tokNumber:
		v, err := strconv.ParseInt(lit.text, 10, 64)
		if err != nil {
			return Pred{}, fmt.Errorf("bad number %q", lit.raw)
		}
		return Pred{Col: col.text, Op: op, Val: schema.IntValue(v)}, nil
	default:
		return Pred{}, fmt.Errorf("expected literal, got %q", lit.raw)
	}
}
