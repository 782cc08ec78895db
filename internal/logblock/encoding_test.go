package logblock

import (
	"fmt"
	"testing"

	"logstore/internal/compress"
	"logstore/internal/index/sma"
	"logstore/internal/schema"
)

func TestDictEncodingChosenForLowCardinality(t *testing.T) {
	// fail column has 2 distinct values over many rows: dict must win.
	rows := make([]schema.Row, 1000)
	for i := range rows {
		fail := "false"
		if i%7 == 0 {
			fail = "true"
		}
		rows[i] = schema.Row{
			schema.IntValue(1), schema.IntValue(int64(i)),
			schema.StringValue("10.0.0.1"), schema.StringValue("/api"),
			schema.IntValue(5), schema.StringValue(fail),
			schema.StringValue(fmt.Sprintf("unique message %d with entropy", i)),
		}
	}
	sch := schema.RequestLogSchema()
	scratch := getScratch()
	defer putScratch(scratch)
	enc, _ := scratch.encodeStringBlock(rows, sch.ColumnIndex("fail"), 0, sma.New(schema.String), nil)
	if enc != encodingDict {
		t.Error("low-cardinality column should dictionary-encode")
	}
	// High-entropy unique strings: plain wins (dict adds the dictionary
	// on top of unique values plus indices).
	enc, _ = scratch.encodeStringBlock(rows, sch.ColumnIndex("log"), 0, sma.New(schema.String), nil)
	if enc != encodingPlain {
		t.Error("unique-value column should stay plain")
	}
}

func TestDictEncodingRoundTrip(t *testing.T) {
	rows := make([]schema.Row, 500)
	apis := []string{"/a", "/b", "/c"}
	for i := range rows {
		rows[i] = schema.Row{
			schema.IntValue(9), schema.IntValue(int64(1000 + i)),
			schema.StringValue("1.1.1.1"), schema.StringValue(apis[i%3]),
			schema.IntValue(int64(i)), schema.StringValue("false"),
			schema.StringValue("m"),
		}
	}
	sch := schema.RequestLogSchema()
	built, err := Build(sch, rows, BuildOptions{BlockRows: 128})
	if err != nil {
		t.Fatal(err)
	}
	packed, err := built.Pack()
	if err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(BytesFetcher(packed))
	if err != nil {
		t.Fatal(err)
	}
	apiCol := sch.ColumnIndex("api")
	for bi := 0; bi < r.Meta.NumBlocks; bi++ {
		vec, err := r.BlockVector(apiCol, bi)
		if err != nil {
			t.Fatal(err)
		}
		start, _ := r.Meta.BlockRowRange(bi)
		for j := 0; j < vec.Len(); j++ {
			if v := vec.Strs.Value(j); v != apis[(start+j)%3] {
				t.Fatalf("block %d row %d: %q", bi, j, v)
			}
		}
	}
}

func TestDictEncodingShrinksLowCardinalityColumns(t *testing.T) {
	// Same data built with and without the possibility of dict encoding
	// isn't directly toggleable, so compare a low-cardinality column's
	// member size against its plain-encoded size estimate.
	rows := make([]schema.Row, 4000)
	for i := range rows {
		rows[i] = schema.Row{
			schema.IntValue(1), schema.IntValue(int64(i)),
			schema.StringValue(fmt.Sprintf("192.168.0.%d", i%8)),
			schema.StringValue("/api/v1/query"),
			schema.IntValue(5), schema.StringValue("false"),
			schema.StringValue("m"),
		}
	}
	sch := schema.RequestLogSchema()
	ipCol := sch.ColumnIndex("ip")
	scratch := getScratch()
	defer putScratch(scratch)
	enc, payload := scratch.encodeStringBlock(rows, ipCol, 0, sma.New(schema.String), nil)
	if enc != encodingDict {
		t.Fatal("ip column with 8 distinct values should dict-encode")
	}
	plainSize := 0
	for _, r := range rows {
		plainSize += len(r[ipCol].S) + 1
	}
	if len(payload)*3 > plainSize {
		t.Errorf("dict payload %d not substantially smaller than plain %d", len(payload), plainSize)
	}
}

func TestDecodeRejectsCorruptEncoding(t *testing.T) {
	rows := makeRows(t, 1, 10, 99)
	built, err := Build(schema.RequestLogSchema(), rows, BuildOptions{Codec: compress.None})
	if err != nil {
		t.Fatal(err)
	}
	member := built.DataPart(2, 0) // ip column, string
	// Find the encoding byte: after the len-prefixed bitset.
	_, n, err := splitMember(member)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := append([]byte(nil), member...)
	corrupt[n] = 99 // unknown encoding
	if _, err := DecodeBlockVector(built.Meta, 2, 0, corrupt); err == nil {
		t.Error("unknown encoding accepted")
	}
	// Truncation right after the bitset (missing encoding byte).
	if _, err := DecodeBlockVector(built.Meta, 2, 0, member[:n]); err == nil {
		t.Error("missing encoding byte accepted")
	}
}

// splitMember returns the bitset bytes and the offset of the encoding
// byte within a data member.
func splitMember(member []byte) ([]byte, int, error) {
	bs, n, err := bitsetPrefix(member)
	return bs, n, err
}

func bitsetPrefix(member []byte) ([]byte, int, error) {
	// Mirrors DecodeBlockVector's framing.
	bsRaw, n, err := lenBytes(member)
	if err != nil {
		return nil, 0, err
	}
	return bsRaw, n, nil
}

func lenBytes(b []byte) ([]byte, int, error) {
	// Local copy to avoid exporting bitutil through the test.
	l := 0
	shift := 0
	i := 0
	for {
		if i >= len(b) {
			return nil, 0, fmt.Errorf("truncated")
		}
		c := b[i]
		l |= int(c&0x7f) << shift
		i++
		if c < 0x80 {
			break
		}
		shift += 7
	}
	if len(b)-i < l {
		return nil, 0, fmt.Errorf("truncated payload")
	}
	return b[i : i+l], i + l, nil
}
