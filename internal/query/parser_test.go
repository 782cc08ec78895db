package query

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unicode"

	"logstore/internal/index/sma"
	"logstore/internal/schema"
)

func TestParsePaperTemplate(t *testing.T) {
	sql := `SELECT log FROM request_log WHERE tenant_id = 12276
		AND ts >= 1604995200000 AND ts <= 1604998800000
		AND ip = '192.168.0.1' AND latency >= 100 AND fail = 'false'`
	q, err := Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	if q.Table != "request_log" || len(q.Select) != 1 || q.Select[0] != "log" {
		t.Fatalf("projection: %+v", q)
	}
	if len(q.Preds) != 6 {
		t.Fatalf("preds = %d", len(q.Preds))
	}
	if err := q.Validate(schema.RequestLogSchema()); err != nil {
		t.Fatal(err)
	}
	tenant, minTS, maxTS, ok := q.KeyRange(schema.RequestLogSchema())
	if !ok || tenant != 12276 || minTS != 1604995200000 || maxTS != 1604998800000 {
		t.Fatalf("KeyRange = %d [%d, %d] %v", tenant, minTS, maxTS, ok)
	}
}

func TestParseShapes(t *testing.T) {
	cases := []string{
		"SELECT * FROM request_log",
		"SELECT COUNT(*) FROM request_log WHERE tenant_id = 1",
		"SELECT ip, latency FROM request_log WHERE latency > 100",
		"SELECT log FROM request_log WHERE log MATCH 'cache miss'",
		"SELECT ip, COUNT(*) FROM request_log WHERE tenant_id = 1 GROUP BY ip ORDER BY count DESC LIMIT 10",
		"SELECT COUNT(*) FROM request_log WHERE tenant_id = 1 GROUP BY api ORDER BY COUNT(*) DESC LIMIT 5",
		"SELECT log FROM request_log WHERE latency != 5 AND fail <> 'true'",
		"SELECT log FROM request_log WHERE ts >= -100 LIMIT 3",
		"select log from request_log where IP = '10.0.0.1'",
	}
	for _, sql := range cases {
		if _, err := Parse(sql); err != nil {
			t.Errorf("Parse(%q): %v", sql, err)
		}
	}
}

func TestParseGroupBySelectForm(t *testing.T) {
	// "SELECT ip, COUNT(*)" is normalized: the parser accepts the list
	// form used in BI dashboards.
	q, err := Parse("SELECT ip, COUNT(*) FROM request_log GROUP BY ip")
	if err != nil {
		t.Fatal(err)
	}
	if !q.CountStar || q.GroupBy != "ip" {
		t.Fatalf("q = %+v", q)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"INSERT INTO x VALUES (1)",
		"SELECT FROM request_log",
		"SELECT log request_log",
		"SELECT log FROM",
		"SELECT log FROM request_log WHERE",
		"SELECT log FROM request_log WHERE latency",
		"SELECT log FROM request_log WHERE latency ==",
		"SELECT log FROM request_log WHERE latency = ",
		"SELECT log FROM request_log WHERE log MATCH 42",
		"SELECT log FROM request_log WHERE log MATCH '...'",
		"SELECT log FROM request_log WHERE ip = 'unterminated",
		"SELECT log FROM request_log LIMIT 'x'",
		"SELECT log FROM request_log LIMIT -1",
		"SELECT log FROM request_log GROUP ip",
		"SELECT log FROM request_log trailing garbage",
		"SELECT log FROM request_log WHERE a = 1 AND",
		"SELECT COUNT(* FROM request_log",
		"SELECT log FROM request_log WHERE x = 1 ; DROP TABLE",
	}
	for _, sql := range cases {
		if _, err := Parse(sql); err == nil {
			t.Errorf("Parse(%q) should fail", sql)
		}
	}
}

func TestParseQuotedEscape(t *testing.T) {
	q, err := Parse("SELECT log FROM request_log WHERE log = 'it''s fine'")
	if err != nil {
		t.Fatal(err)
	}
	if q.Preds[0].Val.S != "it's fine" {
		t.Errorf("escaped literal = %q", q.Preds[0].Val.S)
	}
}

func TestValidateRejections(t *testing.T) {
	sch := schema.RequestLogSchema()
	cases := []string{
		"SELECT log FROM wrong_table",
		"SELECT missing FROM request_log",
		"SELECT log FROM request_log WHERE missing = 1",
		"SELECT log FROM request_log WHERE latency MATCH 'x'",
		"SELECT log FROM request_log WHERE latency = 'str'",
		"SELECT log FROM request_log WHERE ip = 5",
		"SELECT COUNT(*) FROM request_log GROUP BY missing",
		"SELECT ip FROM request_log GROUP BY ip",
		"SELECT log FROM request_log ORDER BY missing",
	}
	for _, sql := range cases {
		q, err := Parse(sql)
		if err != nil {
			// Some of these fail at parse; either is acceptable.
			continue
		}
		if err := q.Validate(sch); err == nil {
			t.Errorf("Validate(%q) should fail", sql)
		}
	}
}

func TestQueryStringRoundTrips(t *testing.T) {
	sql := "SELECT log FROM request_log WHERE tenant_id = 1 AND ip = '10.0.0.1' AND log MATCH 'cache miss' ORDER BY ts DESC LIMIT 7"
	q, err := Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := Parse(q.String())
	if err != nil {
		t.Fatalf("re-parse %q: %v", q.String(), err)
	}
	if q2.String() != q.String() {
		t.Errorf("unstable rendering:\n%s\n%s", q.String(), q2.String())
	}
}

func TestKeyRangeVariants(t *testing.T) {
	sch := schema.RequestLogSchema()
	q, err := Parse("SELECT log FROM request_log WHERE tenant_id = 5 AND ts > 100 AND ts < 200")
	if err != nil {
		t.Fatal(err)
	}
	tenant, lo, hi, ok := q.KeyRange(sch)
	if !ok || tenant != 5 || lo != 101 || hi != 199 {
		t.Errorf("strict bounds: %d [%d, %d] %v", tenant, lo, hi, ok)
	}
	// No tenant predicate.
	q2, _ := Parse("SELECT log FROM request_log WHERE ts >= 10")
	if _, _, _, ok := q2.KeyRange(sch); ok {
		t.Error("missing tenant should report !ok")
	}
	// ts equality pins both bounds.
	q3, _ := Parse("SELECT log FROM request_log WHERE tenant_id = 1 AND ts = 42")
	_, lo, hi, _ = q3.KeyRange(sch)
	if lo != 42 || hi != 42 {
		t.Errorf("equality bounds [%d, %d]", lo, hi)
	}
}

func TestPredEvalRow(t *testing.T) {
	p := Pred{Col: "latency", Op: sma.GE, Val: schema.IntValue(100)}
	if !p.EvalRow(schema.IntValue(100)) || !p.EvalRow(schema.IntValue(101)) || p.EvalRow(schema.IntValue(99)) {
		t.Error("GE eval broken")
	}
	// Kind mismatch is simply false.
	if p.EvalRow(schema.StringValue("100")) {
		t.Error("kind mismatch should be false")
	}
	m := Pred{Col: "log", Match: true, Terms: []string{"cache", "miss"}}
	if !m.EvalRow(schema.StringValue("L2 Cache MISS on shard 3")) {
		t.Error("match should hit")
	}
	if m.EvalRow(schema.StringValue("cache hit")) {
		t.Error("partial match should miss")
	}
	if m.EvalRow(schema.IntValue(1)) {
		t.Error("match on int should miss")
	}
	// All comparison ops.
	for _, tc := range []struct {
		op   sma.Op
		v    int64
		want bool
	}{
		{sma.EQ, 5, true}, {sma.EQ, 6, false},
		{sma.NE, 5, false}, {sma.NE, 6, true},
		{sma.LT, 6, true}, {sma.LT, 5, false},
		{sma.LE, 5, true}, {sma.LE, 4, false},
		{sma.GT, 4, true}, {sma.GT, 5, false},
		{sma.GE, 5, true}, {sma.GE, 6, false},
	} {
		p := Pred{Col: "x", Op: tc.op, Val: schema.IntValue(tc.v)}
		if got := p.EvalRow(schema.IntValue(5)); got != tc.want {
			t.Errorf("5 %v %d = %v, want %v", tc.op, tc.v, got, tc.want)
		}
	}
}

func TestPredString(t *testing.T) {
	p := Pred{Col: "ip", Op: sma.EQ, Val: schema.StringValue("10.0.0.1")}
	if !strings.Contains(p.String(), "'10.0.0.1'") {
		t.Errorf("Pred.String = %q", p.String())
	}
	m := Pred{Col: "log", Match: true, Terms: []string{"a", "b"}}
	if !strings.Contains(m.String(), "MATCH") {
		t.Errorf("match Pred.String = %q", m.String())
	}
}

func TestParseMatchPrefix(t *testing.T) {
	q, err := Parse("SELECT log FROM request_log WHERE tenant_id = 1 AND log MATCH 'cache mis* err*'")
	if err != nil {
		t.Fatal(err)
	}
	p := q.Preds[1]
	if !p.Match || len(p.Terms) != 1 || p.Terms[0] != "cache" {
		t.Fatalf("terms = %v", p.Terms)
	}
	if len(p.Prefixes) != 2 || p.Prefixes[0] != "mis" || p.Prefixes[1] != "err" {
		t.Fatalf("prefixes = %v", p.Prefixes)
	}
	// Eval semantics.
	if !p.EvalRow(schema.StringValue("ERRONEOUS cache MISfire")) {
		t.Error("prefix match should hit")
	}
	if p.EvalRow(schema.StringValue("cache hit, no errors... wait err yes")) {
		// "err" prefix matches "err"/"errors"; "mis" must fail.
		t.Error("missing 'mis*' should miss")
	}
	// Renders and re-parses stably.
	q2, err := Parse(q.String())
	if err != nil {
		t.Fatalf("re-parse %q: %v", q.String(), err)
	}
	if q2.String() != q.String() {
		t.Errorf("unstable: %q vs %q", q.String(), q2.String())
	}
	// A lone '*' is not a term.
	if _, err := Parse("SELECT log FROM request_log WHERE log MATCH '*'"); err == nil {
		t.Error("bare star accepted")
	}
}

// tokenize splits sql into tokens through the lexer Parse reads from.
func tokenize(sql string) ([]token, error) {
	toks := make([]token, 0, len(sql)/4+2)
	l := lexer{sql: sql}
	for {
		t := l.next()
		if l.err != nil {
			return nil, l.err
		}
		toks = append(toks, t)
		if t.kind == tokEOF {
			return toks, nil
		}
	}
}

// tokenizeRef is the tokenizer before it stopped allocating per token:
// the reference tokenize must agree with token for token.
func tokenizeRef(sql string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(sql) {
		c := sql[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '\'':
			j := i + 1
			var sb strings.Builder
			for {
				if j >= len(sql) {
					return nil, fmt.Errorf("unterminated string literal")
				}
				if sql[j] == '\'' {
					// A doubled quote escapes a quote.
					if j+1 < len(sql) && sql[j+1] == '\'' {
						sb.WriteByte('\'')
						j += 2
						continue
					}
					break
				}
				sb.WriteByte(sql[j])
				j++
			}
			toks = append(toks, token{kind: tokString, text: sb.String(), raw: sql[i : j+1]})
			i = j + 1
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
			toks = append(toks, token{kind: tokIdent, text: strings.ToLower(sql[i:j]), raw: sql[i:j]})
			i = j
		case strings.ContainsRune("=<>!,*()", rune(c)):
			// Two-char operators first.
			if i+1 < len(sql) {
				two := sql[i : i+2]
				if two == "<=" || two == ">=" || two == "!=" || two == "<>" {
					toks = append(toks, token{kind: tokSymbol, text: two, raw: two})
					i += 2
					continue
				}
			}
			toks = append(toks, token{kind: tokSymbol, text: string(c), raw: string(c)})
			i++
		default:
			return nil, fmt.Errorf("unexpected character %q", c)
		}
	}
	return append(toks, token{kind: tokEOF}), nil
}

func isIdentStart(r rune) bool { return unicode.IsLetter(r) || r == '_' }
func isIdentPart(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '.'
}

// parseRef is Parse over tokenizeRef.
func parseRef(sql string) (*Query, error) {
	toks, err := tokenizeRef(sql)
	if err != nil {
		return nil, err
	}
	q, err := (&parser{tok: toks[0], replay: toks}).parseQuery()
	if err != nil {
		return nil, fmt.Errorf("query: parse %q: %w", sql, err)
	}
	return q, nil
}

// parseSeeds are the statements FuzzParse starts from beside its
// checked-in corpus (go run ./cmd/fuzzseed): the paper's template,
// upper- and mixed-case keywords, escaped quotes, non-ASCII and invalid
// UTF-8.
var parseSeeds = []string{
	"SELECT log FROM request_log WHERE tenant_id = 12276 AND ts >= 1604995200000 AND ts <= 1604998800000 AND ip = '192.168.0.1' AND latency >= 100 AND fail = 'false'",
	"SeLeCt Log FrOm Request_Log wHeRe IP = 'it''s' aNd LOG match 'cache mis*' Order By COUNT(*) desc LIMIT 5",
	"select ip, count(*) from request_log where tenant_id = 1 group by ip order by count asc limit 10",
	"SELECT * FROM request_log WHERE log = '''' AND api <> '' AND x != 'ä''ö' AND Ünïcode = 'é'",
	"SELECT log FROM request_log WHERE ts >= -100 AND latency < 7 LIMIT 3",
	"SELECT log FROM request_log WHERE ip = 'unterminated",
	"SELECT \xff\xc3 FROM t WHERE a = 1",
	"SELECT \u017felect FROM t WHERE \u212a = 1 \u212aND x = 2",   // letters that fold to ASCII ones
	"SELECT FROM request_log WHERE ip = 'unterminated",            // a parse error before a malformed token
	"SELECT log FROM request_log WHERE ts >= 1 AND AND ts <= 2 ~", // the same, the other malformed token
}

func TestTokenizeMatchesReference(t *testing.T) {
	for _, sql := range parseSeeds {
		checkParseMatchesReference(t, sql)
	}
}

// TestTokenizeAllocations: the lexer allocates nothing for a statement
// whose literals have no escaped quote, whatever the case of its
// keywords: tokenize's one allocation is its token slice.
func TestTokenizeAllocations(t *testing.T) {
	sql := parseSeeds[0]
	if n := testing.AllocsPerRun(50, func() {
		if _, err := tokenize(sql); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Fatalf("tokenize made %v allocations, want 1", n)
	}
}

// TestParseAllocations: Parse allocates the query, its predicates and
// its select list, and nothing per token.
func TestParseAllocations(t *testing.T) {
	sql := parseSeeds[0]
	if n := testing.AllocsPerRun(50, func() {
		if _, err := Parse(sql); err != nil {
			t.Fatal(err)
		}
	}); n != 3 {
		t.Fatalf("Parse made %v allocations, want 3", n)
	}
}

// TestParseInt64MatchesStrconv: the number-token fast path agrees with
// strconv.ParseInt, value and error, at every length and at the limits.
func TestParseInt64MatchesStrconv(t *testing.T) {
	cases := []string{"0", "-0", "7", "-7", "007", "999999999999999999", "-999999999999999999",
		"9223372036854775807", "-9223372036854775808", "9223372036854775808", "-9223372036854775809",
		"99999999999999999999999"}
	rng := rand.New(rand.NewSource(34))
	for i := 0; i < 2000; i++ {
		s := strconv.FormatInt(rng.Int63()>>uint(rng.Intn(63)), 10)
		if rng.Intn(2) == 0 {
			s = "-" + s
		}
		cases = append(cases, s)
	}
	for _, s := range cases {
		got, err := parseInt64(s)
		want, werr := strconv.ParseInt(s, 10, 64)
		if got != want || (err == nil) != (werr == nil) {
			t.Fatalf("parseInt64(%q) = %d, %v; strconv %d, %v", s, got, err, want, werr)
		}
	}
}

func checkParseMatchesReference(t *testing.T, sql string) {
	t.Helper()
	toks, err := tokenize(sql)
	want, werr := tokenizeRef(sql)
	if fmt.Sprint(err) != fmt.Sprint(werr) || !slices.Equal(toks, want) {
		t.Fatalf("tokenize(%q) = %v, %v\nreference %v, %v", sql, toks, err, want, werr)
	}
	q, err := Parse(sql)
	wq, werr := parseRef(sql)
	if fmt.Sprint(err) != fmt.Sprint(werr) || !reflect.DeepEqual(q, wq) {
		t.Fatalf("Parse(%q) = %+v, %v\nreference %+v, %v", sql, q, err, wq, werr)
	}
}

// FuzzParse: tokenize and Parse agree with the reference tokenizer on
// every input — the same tokens, and the same *Query or the same error
// — and never panic.
func FuzzParse(f *testing.F) {
	for _, sql := range parseSeeds {
		f.Add(sql)
	}
	f.Fuzz(checkParseMatchesReference)
}
