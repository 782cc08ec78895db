package tarblock

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"testing"

	"logstore/internal/logblock"
	"logstore/internal/schema"
)

// fixtures are the tars of older releases checked in beside the
// logblock package's tests: goldenRows(12, 17) of tenant 9 at BlockRows
// 8, with one member per part and the legacy index encoding, with four
// members and the legacy index encoding, and with four members and the
// compact one.
var fixtures = []struct {
	file   string
	format logblock.IndexFormat
}{
	{"parent_layout.tar", logblock.IndexFormatLegacy},
	{"legacy_index.tar", logblock.IndexFormatLegacy},
	{"four_member.tar", logblock.IndexFormatCompact},
}

func readFixture(t testing.TB, file string) []byte {
	t.Helper()
	obj, err := os.ReadFile("../logblock/testdata/" + file)
	if err != nil {
		t.Fatal(err)
	}
	return obj
}

// TestOpenFixtures opens each tar fixture, reads its rows, and loads
// its indexes where their encoding is one the index packages read: a
// legacy one is refused with ErrLegacyLayout, not misread.
func TestOpenFixtures(t *testing.T) {
	for _, fx := range fixtures {
		t.Run(fx.file, func(t *testing.T) {
			r, err := Open(readFixture(t, fx.file))
			if err != nil {
				t.Fatal(err)
			}
			rows, err := r.AllRows()
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) != 12 || r.Meta.Tenant != 9 || r.Meta.NumBlocks != 2 {
				t.Fatalf("%d rows of tenant %d in %d blocks, want 12 of tenant 9 in 2", len(rows), r.Meta.Tenant, r.Meta.NumBlocks)
			}
			for ci, cm := range r.Meta.Columns {
				if !r.HasIndex(ci) {
					continue
				}
				_, err := r.InvertedIndex(ci)
				if cm.Index == schema.IndexBKD {
					_, err = r.BKDIndex(ci)
				}
				if legacy := cm.IndexFormat == logblock.IndexFormatLegacy; legacy != errors.Is(err, logblock.ErrLegacyLayout) || !legacy && err != nil {
					t.Errorf("column %d, index format %d: load returned %v", ci, cm.IndexFormat, err)
				}
			}
		})
	}
}

// TestOpenCorrupt damages a tar fixture in the ways a torn upload or
// bit rot would and checks Open rejects each one.
func TestOpenCorrupt(t *testing.T) {
	obj := readFixture(t, "legacy_index.tar")
	damaged := func(edit func(p []byte)) []byte {
		p := bytes.Clone(obj)
		edit(p)
		return p
	}
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"truncated tar header", obj[:100]},
		{"truncated manifest", obj[:tarBlock+4]},
		{"zeroed size field", damaged(func(p []byte) { clear(p[124:136]) })},                      // NULs in the octal size field
		{"oversized size field", damaged(func(p []byte) { copy(p[124:136], "77777777777\x00") })}, // claims ~8 GiB
		{"manifest names no part", damaged(func(p []byte) { p[tarBlock+5] = '?' })},
		{"part beyond the object", obj[:len(obj)-tarBlock*3]},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Open(tc.data); err == nil {
				t.Fatal("Open accepted corrupt input")
			}
		})
	}
}

// TestMemberNames pins the names manifests address parts by — old
// objects carry them spelled by fmt — to the positions the decoder maps
// them to, and its cost: parsing a name allocates nothing.
func TestMemberNames(t *testing.T) {
	for _, col := range []int{0, 7, 10, 123456} {
		if kind, c, _, ok := parseName(fmt.Sprintf("index/%d", col)); !ok || kind != kindIndex || c != col {
			t.Errorf("index/%d parsed as kind %d column %d (%v)", col, kind, c, ok)
		}
		for _, blk := range []int{0, 9, 10, 4095} {
			if kind, c, b, ok := parseName(fmt.Sprintf("data/%d/%d", col, blk)); !ok || kind != kindData || c != col || b != blk {
				t.Errorf("data/%d/%d parsed as kind %d column %d block %d (%v)", col, blk, kind, c, b, ok)
			}
		}
	}
	if kind, _, _, ok := parseName("meta"); !ok || kind != kindMeta {
		t.Errorf("meta parsed as kind %d (%v)", kind, ok)
	}
	for _, bad := range []string{"", "manifest", "index/", "index/x", "index/-1", "data/1", "data/1/", "data//2", "data/1/2/3", "data/1234567890/0"} {
		if _, _, _, ok := parseName(bad); ok {
			t.Errorf("%q parsed as a part name", bad)
		}
	}
	if n := testing.AllocsPerRun(100, func() { parseName("data/6/12") }); n != 0 {
		t.Errorf("parseName allocates %.0f times", n)
	}
}

// FuzzOpen treats the input as a tar of an older release, as the
// rewrite reads it: whatever Open accepts must then survive reading its
// rows and loading its indexes, returning errors for damage, never
// panicking. The checked-in corpus (go run ./cmd/fuzzseed) holds the
// three tar fixtures and torn copies of each.
func FuzzOpen(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return // decompression, not the framing, would take the budget
		}
		r, err := Open(data)
		if err != nil {
			return
		}
		m := r.Meta
		if m.RowCount <= 4096 && len(m.Schema.Columns) <= 32 {
			if rows, err := r.AllRows(); err == nil && len(rows) != m.RowCount {
				t.Fatalf("AllRows returned %d rows of %d", len(rows), m.RowCount)
			}
		}
		for ci := range m.Columns {
			if r.HasIndex(ci) {
				_, _ = r.InvertedIndex(ci)
				_, _ = r.BKDIndex(ci)
			}
		}
	})
}
