package query

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

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
	p := parser{lex: lexer{sql: sql}}
	p.tok = p.lex.next()
	q, err := p.parseQuery()
	if err != nil && p.lex.err == nil {
		// A malformed token anywhere in sql is the error to report, as
		// if sql had been split into tokens before parsing began.
		for p.lex.next().kind != tokEOF {
		}
	}
	if p.lex.err != nil {
		return nil, p.lex.err
	}
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

// lexer reads sql one token at a time without copying it where it can:
// an identifier already in lower case, a keyword in any case, a string
// literal without an escaped (doubled) quote, a number and a symbol are
// all substrings of sql or constants.
type lexer struct {
	sql string
	pos int
	err error // the first malformed token; every later token is tokEOF
}

// next returns the token at l.pos and moves past it.
func (l *lexer) next() token {
	var t token
	l.scan(&t)
	return t
}

// scan reads the token at l.pos into t and moves past it.
func (l *lexer) scan(t *token) {
	sql := l.sql
	i := l.pos
	for i < len(sql) && byteClass[sql[i]]&space != 0 {
		i++
	}
	if i == len(sql) || l.err != nil {
		l.pos = i
		*t = token{kind: tokEOF}
		return
	}
	j := i + 1
	switch c := sql[i]; {
	case c == '\'':
		text, end, err := stringLiteral(sql, i)
		if err != nil {
			l.err = err
			*t = token{kind: tokEOF}
			return
		}
		*t, j = token{kind: tokString, text: text, raw: sql[i:end]}, end
	case c == '-' || (c >= '0' && c <= '9'):
		for j < len(sql) && sql[j] >= '0' && sql[j] <= '9' {
			j++
		}
		if j == i+1 && c == '-' {
			l.err = fmt.Errorf("stray '-'")
			*t = token{kind: tokEOF}
			return
		}
		*t = token{kind: tokNumber, text: sql[i:j], raw: sql[i:j]}
	case byteClass[c]&identStart != 0:
		class := byteClass[c]
		for ; j < len(sql) && byteClass[sql[j]]&identPart != 0; j++ {
			class |= byteClass[sql[j]]
		}
		word := sql[i:j]
		*t = token{kind: tokIdent, text: word, raw: word}
		if class&(upperASCII|nonASCII) != 0 {
			t.text = lowerIdent(word, class&nonASCII != 0)
		}
	case byteClass[c]&symbol != 0:
		// Two-char operators first.
		if j < len(sql) {
			if two := sql[i : i+2]; two == "<=" || two == ">=" || two == "!=" || two == "<>" {
				j++
			}
		}
		*t = token{kind: tokSymbol, text: sql[i:j], raw: sql[i:j]}
	default:
		l.err = fmt.Errorf("unexpected character %q", c)
		*t = token{kind: tokEOF}
		return
	}
	l.pos = j
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

// lowerIdent returns strings.ToLower(s) for an identifier with an upper
// case letter, without allocating when it is a keyword: only an ASCII
// word can equal an ASCII keyword case-insensitively at the same length.
func lowerIdent(s string, nonASCII bool) string {
	if !nonASCII {
		if kw := keyword(s); kw != "" {
			return kw
		}
	}
	return strings.ToLower(s)
}

// keyword returns the keyword the ASCII word s spells in any case, or
// "" when it spells none.
func keyword(s string) string {
	if len(s) >= len(keywordsByLen) {
		return ""
	}
	for _, kw := range keywordsByLen[len(s)] {
		if asciiFold(s, kw) {
			return kw
		}
	}
	return ""
}

// keywordsByLen are the words the parser accepts, by length.
var keywordsByLen = [...][]string{
	2: {"by"},
	3: {"and", "asc"},
	4: {"from", "desc"},
	5: {"where", "match", "group", "order", "count", "limit"},
	6: {"select"},
}

// asciiFold reports whether the ASCII word s equals the lower-case
// word kw of the same length, ignoring case.
func asciiFold(s, kw string) bool {
	for i := 0; i < len(kw); i++ {
		if s[i]|0x20 != kw[i] {
			return false
		}
	}
	return true
}

// byteClass classifies each byte for the lexer, taken as the rune of
// the same value: identStart for a letter or '_', identPart for those,
// a digit or '.', symbol for punctuation and operators, space for the
// blanks between tokens, and upperASCII and nonASCII for the bytes that
// make lowering an identifier more than taking it as it is. Beyond
// ASCII a letter is one of unicode's Latin-1 letters.
var byteClass = func() (t [256]uint8) {
	for b := range t {
		r := rune(b)
		if unicode.IsLetter(r) || r == '_' {
			t[b] |= identStart | identPart
		}
		if unicode.IsDigit(r) || r == '.' {
			t[b] |= identPart
		}
		if strings.ContainsRune("=<>!,*()", r) {
			t[b] |= symbol
		}
		if strings.ContainsRune(" \t\n\r", r) {
			t[b] |= space
		}
		if 'A' <= r && r <= 'Z' {
			t[b] |= upperASCII
		}
		if r >= utf8.RuneSelf {
			t[b] |= nonASCII
		}
	}
	return t
}()

const (
	identStart = 1 << iota
	identPart
	symbol
	upperASCII
	nonASCII
	space
)

// parser reads a statement with one token of lookahead, tok, from lex,
// or from replay when that is set (the reference parse in tests).
type parser struct {
	lex    lexer
	tok    token
	replay []token
}

func (p *parser) peek() token { return p.tok }
func (p *parser) next() token {
	t := p.tok
	if p.replay == nil {
		p.lex.scan(&p.tok)
	} else if len(p.replay) > 1 {
		p.replay = p.replay[1:]
		p.tok = p.replay[0]
	}
	return t
}
func (p *parser) accept(kind tokKind, text string) bool {
	if p.tok.kind == kind && p.tok.text == text {
		p.next()
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
	// The selected columns, then each predicate's terms, gather on the
	// stack; the query gets them out of one slice at the end.
	var strBuf [8]string
	strs, err := p.parseSelectList(q, strBuf[:0])
	if err != nil {
		return nil, err
	}
	nsel := len(strs)
	if err := p.expectIdent("from"); err != nil {
		return nil, err
	}
	tbl := p.next()
	if tbl.kind != tokIdent {
		return nil, fmt.Errorf("expected table name, got %q", tbl.raw)
	}
	q.Table = tbl.text

	var endBuf [8]int
	ends := endBuf[:0] // where each predicate's terms end in strs
	if p.accept(tokIdent, "where") {
		var buf [8]Pred
		preds := buf[:0] // the query keeps a copy of the exact size
		for {
			var pred Pred
			if pred, strs, err = p.parsePred(strs); err != nil {
				return nil, err
			}
			preds = append(preds, pred)
			ends = append(ends, len(strs))
			if !p.accept(tokIdent, "and") {
				break
			}
		}
		q.Preds = append([]Pred(nil), preds...)
	}
	if len(strs) > 0 {
		all := append([]string(nil), strs...)
		if nsel > 0 {
			q.Select = all[:nsel:nsel]
		}
		lo := nsel
		for i, end := range ends {
			if end > lo {
				q.Preds[i].Terms = all[lo:end:end]
			}
			lo = end
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

// parseSelectList sets q's projection flags and appends the columns it
// selects to cols.
func (p *parser) parseSelectList(q *Query, cols []string) ([]string, error) {
	if p.accept(tokSymbol, "*") {
		q.Star = true
		return cols, nil
	}
	if p.accept(tokIdent, "count") {
		if !p.accept(tokSymbol, "(") || !p.accept(tokSymbol, "*") || !p.accept(tokSymbol, ")") {
			return cols, fmt.Errorf("expected COUNT(*)")
		}
		q.CountStar = true
		return cols, nil
	}
	for {
		t := p.next()
		if t.kind != tokIdent {
			return cols, fmt.Errorf("expected column name, got %q", t.raw)
		}
		// The BI form "SELECT key, COUNT(*) ... GROUP BY key".
		if t.text == "count" && p.accept(tokSymbol, "(") {
			if !p.accept(tokSymbol, "*") || !p.accept(tokSymbol, ")") {
				return cols, fmt.Errorf("expected COUNT(*)")
			}
			q.CountStar = true
		} else {
			cols = append(cols, t.text)
		}
		if !p.accept(tokSymbol, ",") {
			return cols, nil
		}
	}
}

// parseInt64 is strconv.ParseInt(s, 10, 64) for a number token: an
// optional '-' and digits. One short enough not to overflow is summed
// in place.
func parseInt64(s string) (int64, error) {
	digits := strings.TrimPrefix(s, "-")
	if len(digits) > 18 {
		return strconv.ParseInt(s, 10, 64)
	}
	var v int64
	for i := 0; i < len(digits); i++ {
		v = v*10 + int64(digits[i]-'0')
	}
	if len(digits) < len(s) {
		v = -v
	}
	return v, nil
}

// compareOp returns the comparison a symbol spells.
func compareOp(sym string) (sma.Op, bool) {
	switch sym {
	case "=":
		return sma.EQ, true
	case "!=", "<>":
		return sma.NE, true
	case "<":
		return sma.LT, true
	case "<=":
		return sma.LE, true
	case ">":
		return sma.GT, true
	case ">=":
		return sma.GE, true
	}
	return 0, false
}

// parsePred parses one conjunct. It appends the predicate's terms to
// terms — a MATCH's analyzed words, or a string equality literal's
// tokens — and leaves setting Pred.Terms to the caller.
func (p *parser) parsePred(terms []string) (Pred, []string, error) {
	col := p.next()
	if col.kind != tokIdent {
		return Pred{}, terms, fmt.Errorf("expected column name, got %q", col.raw)
	}
	if p.accept(tokIdent, "match") {
		lit := p.next()
		if lit.kind != tokString {
			return Pred{}, terms, fmt.Errorf("MATCH needs a string literal, got %q", lit.raw)
		}
		// A word with a trailing '*' is a prefix query; everything else
		// analyzes into exact terms.
		var prefixes []string
		from := len(terms)
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
			terms = inverted.AppendTokens(terms, word)
		}
		if len(terms) == from && len(prefixes) == 0 {
			return Pred{}, terms, fmt.Errorf("MATCH text %q has no terms", lit.text)
		}
		return Pred{Col: col.text, Match: true, Prefixes: prefixes}, terms, nil
	}
	opTok := p.next()
	op, ok := compareOp(opTok.text)
	if opTok.kind != tokSymbol || !ok {
		return Pred{}, terms, fmt.Errorf("expected comparison operator, got %q", opTok.raw)
	}
	lit := p.next()
	switch lit.kind {
	case tokString:
		if op == sma.EQ {
			terms = inverted.AppendTokens(terms, lit.text)
		}
		return Pred{Col: col.text, Op: op, Val: schema.StringValue(lit.text)}, terms, nil
	case tokNumber:
		v, err := parseInt64(lit.text)
		if err != nil {
			return Pred{}, terms, fmt.Errorf("bad number %q", lit.raw)
		}
		return Pred{Col: col.text, Op: op, Val: schema.IntValue(v)}, terms, nil
	default:
		return Pred{}, terms, fmt.Errorf("expected literal, got %q", lit.raw)
	}
}
