package logblock

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"logstore/internal/bitutil"
	"logstore/internal/index/inverted"
	"logstore/internal/index/sma"
	"logstore/internal/schema"
)

// perRowStringBlock is the string column block step as it was before
// the one-pass builder, kept as the reference encodeStringBlock must
// match byte for byte: every cell is folded into the SMA and indexed by
// inverted Add, then a second pass chooses plain or dictionary encoding.
func perRowStringBlock(s *buildScratch, rows []schema.Row, ci, first int, st *sma.SMA, inv *inverted.Builder) (byte, []byte) {
	for i, r := range rows {
		st.AddString(r[ci].S)
		if inv != nil {
			inv.Add(uint32(first+i), r[ci].S)
		}
	}
	plain, entries, codes := s.plain[:0], s.entries[:0], s.codes[:0]
	clear(s.dict)
	dictable := true
	for _, r := range rows {
		v := r[ci].S
		plain = bitutil.AppendLenString(plain, v)
		if !dictable {
			continue
		}
		code, ok := s.dict[v]
		if !ok {
			if len(s.dict) >= maxDictEntries {
				dictable = false
				continue
			}
			code = len(s.dict)
			s.dict[v] = code
			entries = bitutil.AppendLenString(entries, v)
		}
		codes = bitutil.AppendUvarint(codes, uint64(code))
	}
	s.plain, s.entries, s.codes = plain, entries, codes
	count := uint64(len(s.dict))
	if !dictable || bitutil.UvarintLen(count)+len(entries)+len(codes) >= len(plain) {
		return encodingPlain, plain
	}
	s.plain = append(append(bitutil.AppendUvarint(plain[:0], count), entries...), codes...)
	return encodingDict, s.plain
}

// onePassSchema has four indexed string columns and one without an
// index, so the builder's nil-index path runs beside the indexed one.
func onePassSchema() *schema.Schema {
	return &schema.Schema{
		Name: "onepass",
		Columns: []schema.Column{
			{Name: "tenant_id", Type: schema.Int64, Index: schema.IndexBKD},
			{Name: "ts", Type: schema.Int64, Index: schema.IndexBKD},
			{Name: "a", Type: schema.String, Index: schema.IndexInverted},
			{Name: "b", Type: schema.String, Index: schema.IndexInverted},
			{Name: "c", Type: schema.String, Index: schema.IndexInverted},
			{Name: "d", Type: schema.String, Index: schema.IndexInverted},
			{Name: "plain", Type: schema.String, Index: schema.IndexNone},
		},
		TenantCol: "tenant_id",
		TimeCol:   "ts",
	}
}

// valueShapes are the kinds of cell the one-pass test mixes: values a
// column repeats, a value it never repeats, case variants of one text
// (distinct raw values, shared terms), non-ASCII text, invalid UTF-8,
// and values with no terms at all.
var valueShapes = []func(r *rand.Rand, row int) string{
	func(r *rand.Rand, _ int) string {
		return []string{"false", "true", "/api/v1/query", "10.0.0.1"}[r.Intn(4)]
	},
	func(r *rand.Rand, row int) string { return fmt.Sprintf("req %d took %dms", row, r.Intn(1000)) },
	func(r *rand.Rand, _ int) string {
		b := []byte("GET /Items/42 OK done")
		for i := range b {
			if r.Intn(2) == 0 {
				b[i] = strings.ToUpper(string(b[i]))[0]
			} else {
				b[i] = strings.ToLower(string(b[i]))[0]
			}
		}
		return string(b)
	},
	func(r *rand.Rand, _ int) string {
		return []string{"Straße ÜBER alles", "İstanbul ΣΊΣΥΦΟΣ", "日本語 テキスト 42", "ǅemal Ǆ ǆ", "naïve café"}[r.Intn(5)]
	},
	func(r *rand.Rand, _ int) string {
		return []string{"\xff\xfe abc", "ok \xc3", "\xed\xa0\x80 surrogate", "A\x80B"}[r.Intn(4)]
	},
	func(r *rand.Rand, _ int) string { return []string{"", " ", "--/--", "\t"}[r.Intn(4)] },
}

// randomColumns builds n rows of one tenant whose string columns each
// draw from a random subset of valueShapes.
func randomColumns(r *rand.Rand, n int) []schema.Row {
	sch := onePassSchema()
	shapes := make([][]int, len(sch.Columns))
	for ci := range shapes {
		for k := 1 + r.Intn(3); k > 0; k-- {
			shapes[ci] = append(shapes[ci], r.Intn(len(valueShapes)))
		}
	}
	rows := make([]schema.Row, n)
	for i := range rows {
		row := make(schema.Row, len(sch.Columns))
		row[0] = schema.IntValue(3)
		row[1] = schema.IntValue(int64(r.Intn(n + 1)))
		for ci := 2; ci < len(row); ci++ {
			pick := shapes[ci][r.Intn(len(shapes[ci]))]
			row[ci] = schema.StringValue(valueShapes[pick](r, i))
		}
		rows[i] = row
	}
	return rows
}

// assertSamePack builds rows with the one-pass builder and with the
// per-row reference and requires the packed objects to be identical.
func assertSamePack(t *testing.T, sch *schema.Schema, rows []schema.Row, opts BuildOptions) {
	t.Helper()
	pack := func(stringBlock stringBlockFunc) []byte {
		built, err := build(sch, rows, opts, stringBlock)
		if err != nil {
			t.Fatal(err)
		}
		packed, err := built.Pack()
		if err != nil {
			t.Fatal(err)
		}
		return packed
	}
	got, want := pack((*buildScratch).encodeStringBlock), pack(perRowStringBlock)
	if !bytes.Equal(got, want) {
		t.Fatalf("one-pass build of %d rows (%+v) differs from the per-row reference: %d vs %d bytes",
			len(rows), opts, len(got), len(want))
	}
}

// TestOnePassMatchesPerRow holds the one-pass string column step to
// the per-row reference over random columns: repeated, never-repeated,
// mixed-case, non-ASCII, invalid-UTF-8 and empty values, one or many
// column blocks, with indexes and without.
func TestOnePassMatchesPerRow(t *testing.T) {
	sch := onePassSchema()
	r := rand.New(rand.NewSource(33))
	for trial := 0; trial < 300; trial++ {
		rows := randomColumns(r, 1+r.Intn(400))
		opts := BuildOptions{}
		if r.Intn(3) > 0 {
			opts.BlockRows = 1 + r.Intn(64)
		}
		opts.NoIndexes = r.Intn(8) == 0
		assertSamePack(t, sch, rows, opts)
	}
}

// TestOnePassPastDictBound covers blocks with more distinct values
// than the dictionary holds: the block goes plain and its cells from
// the first value past the bound on take the per-row path, including
// repeats of values the dictionary had taken in.
func TestOnePassPastDictBound(t *testing.T) {
	sch := onePassSchema()
	r := rand.New(rand.NewSource(34))
	n := maxDictEntries + 900
	rows := make([]schema.Row, n)
	for i := range rows {
		row := schema.Row{schema.IntValue(3), schema.IntValue(int64(i))}
		// a: distinct up to the bound, then repeats of earlier values.
		a := fmt.Sprintf("Value %d", i)
		if i > maxDictEntries+100 {
			a = fmt.Sprintf("Value %d", r.Intn(maxDictEntries))
		}
		// b, d and plain: never repeat; c: five values.
		b := fmt.Sprintf("id-%d", i)
		row = append(row, schema.StringValue(a), schema.StringValue(b),
			schema.StringValue(valueShapes[3](r, i)), schema.StringValue(valueShapes[1](r, i)),
			schema.StringValue(fmt.Sprintf("p%d", i)))
		rows[i] = row
	}
	for _, opts := range []BuildOptions{{BlockRows: n}, {BlockRows: maxDictEntries + 1}, {}, {BlockRows: n, NoIndexes: true}} {
		assertSamePack(t, sch, rows, opts)
	}
}
