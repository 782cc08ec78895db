package logblock_test

import (
	"errors"
	"os"
	"testing"

	"logstore/internal/logblock"
	"logstore/internal/schema"
	"logstore/internal/tarblock"
)

// openTar opens a tar fixture through package tarblock, after checking
// that OpenReader refuses it.
func openTar(t *testing.T, file string) *logblock.Reader {
	t.Helper()
	obj, err := os.ReadFile("testdata/" + file)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := logblock.OpenReader(logblock.BytesFetcher(obj)); !errors.Is(err, logblock.ErrLegacyLayout) {
		t.Fatalf("OpenReader on %s: %v, want ErrLegacyLayout", file, err)
	}
	r, err := tarblock.Open(obj)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestParentLayoutFixture reads two objects of goldenRows(12, 17) at
// BlockRows 8 packed by earlier commits — testdata/parent_layout.tar,
// with one tar member per part, and testdata/legacy_index.tar, with
// four members and the legacy index encoding — and checks them against
// the same rows packed now: the same manifest names but for the tenant
// column's index, which a LogBlock no longer writes; behind them the
// same data parts (DEFLATE ones may differ in bytes, with the level,
// but not in rows); the same meta but for the index formats and the
// tenant column's index. Their indexes, in the legacy encoding, do not
// load: the rewrite that re-packs such objects reads their rows alone.
func TestParentLayoutFixture(t *testing.T) {
	rows := logblock.GoldenRows(12, 17)
	newReader := logblock.BuildAndOpen(t, rows, logblock.BuildOptions{BlockRows: 8})
	for _, file := range []string{"parent_layout.tar", "legacy_index.tar"} {
		t.Run(file, func(t *testing.T) {
			oldReader := openTar(t, file)
			for ci, cm := range oldReader.Meta.Columns {
				if cm.IndexFormat != logblock.IndexFormatLegacy {
					t.Fatalf("column %d of the parent's object has index format %d", ci, cm.IndexFormat)
				}
				if !oldReader.HasIndex(ci) {
					continue
				}
				_, err := oldReader.InvertedIndex(ci)
				if cm.Index == schema.IndexBKD {
					_, err = oldReader.BKDIndex(ci)
				}
				if !errors.Is(err, logblock.ErrLegacyLayout) {
					t.Fatalf("column %d's legacy index loaded with %v, want ErrLegacyLayout", ci, err)
				}
			}
			logblock.AssertSameParts(t, oldReader, newReader)
		})
	}
}

// TestTarLayoutFixture reads testdata/four_member.tar, goldenRows(12,
// 17) at BlockRows 8 packed by the last commit that wrote a tar (four
// members, the compact index encoding with whole-value terms), and
// checks it against the same rows packed now: the format change moved
// the framing, not a byte of any LZ4 data part nor a row of the
// others, and the token-only indexes answer as the compact ones did.
func TestTarLayoutFixture(t *testing.T) {
	rows := logblock.GoldenRows(12, 17)
	oldReader := openTar(t, "four_member.tar")
	for ci, cm := range oldReader.Meta.Columns {
		if cm.Index != schema.IndexNone && cm.IndexFormat != logblock.IndexFormatCompact {
			t.Fatalf("column %d of the tar has index format %d", ci, cm.IndexFormat)
		}
	}
	logblock.AssertSameButIndexes(t, oldReader, logblock.BuildAndOpen(t, rows, logblock.BuildOptions{BlockRows: 8}), rows)
}
