package rowstore

import (
	"fmt"
	"testing"

	"logstore/internal/bitutil"
	"logstore/internal/schema"
)

// decodeBatch is the reference AppendBatch is held to: the batch's rows
// as schema.DecodeRow decodes them one by one.
func decodeBatch(data []byte) ([]schema.Row, error) {
	n, off, err := bitutil.Uvarint(data)
	if err != nil {
		return nil, fmt.Errorf("batch count: %w", err)
	}
	if n > uint64(len(data)-off) { // a row is at least one byte
		return nil, fmt.Errorf("batch claims %d rows in %d bytes", n, len(data)-off)
	}
	rows := make([]schema.Row, 0, n)
	for i := uint64(0); i < n; i++ {
		r, c, err := schema.DecodeRow(data[off:])
		if err != nil {
			return nil, fmt.Errorf("batch row %d: %w", i, err)
		}
		off += c
		rows = append(rows, r)
	}
	return rows, nil
}

// FuzzAppendBatch treats the fuzz input as one committed sub's batch —
// bytes a shard's apply reads back from a raft WAL or a shipped chunk
// — and applies it to a store that already holds a row, with segments
// small enough that a batch can straddle a seal. AppendBatch must never
// panic; it accepts the batch exactly when every row decodes
// (schema.DecodeRow) and conforms to the schema, and then Scan returns
// exactly those rows after the resident one. A rejected batch changes
// nothing Stats reports.
func FuzzAppendBatch(f *testing.F) {
	// The seed corpus is testdata/fuzz/FuzzAppendBatch (cmd/fuzzseed).
	sch := schema.RequestLogSchema()
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := New(sch, Options{MaxSegmentRows: 3})
		if err != nil {
			t.Fatal(err)
		}
		resident := row(1, 1, "resident")
		if err := s.Append(resident); err != nil {
			t.Fatal(err)
		}
		rows0, bytes0, sealed0 := s.Stats()

		want, werr := decodeBatch(data)
		for i := 0; werr == nil && i < len(want); i++ {
			werr = want[i].Conforms(sch)
		}
		n, err := s.AppendBatch(data)
		if (err == nil) != (werr == nil) {
			t.Fatalf("AppendBatch: %d rows, err %v; the reference decode says %v", n, err, werr)
		}
		if err != nil {
			if rows, bytes, sealed := s.Stats(); n != 0 || rows != rows0 || bytes != bytes0 || sealed != sealed0 {
				t.Fatalf("rejected batch changed the store: %d rows applied, stats %d/%d/%d, were %d/%d/%d",
					n, rows, bytes, sealed, rows0, bytes0, sealed0)
			}
			return
		}
		if n != len(want) {
			t.Fatalf("AppendBatch applied %d rows, the batch holds %d", n, len(want))
		}
		var got []schema.Row
		s.Scan(func(r schema.Row) bool { got = append(got, r); return true })
		want = append([]schema.Row{resident}, want...)
		if len(got) != len(want) {
			t.Fatalf("Scan returned %d rows, want %d", len(got), len(want))
		}
		size := int64(0)
		for i := range want {
			size += int64(want[i].Size())
			for j := range want[i] {
				if !got[i][j].Equal(want[i][j]) {
					t.Fatalf("row %d column %d = %v, want %v", i, j, got[i][j], want[i][j])
				}
			}
		}
		if rows, bytes, _ := s.Stats(); rows != int64(len(want)) || bytes != size {
			t.Fatalf("Stats = %d rows, %d bytes; want %d, %d", rows, bytes, len(want), size)
		}
	})
}
