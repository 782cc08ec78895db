package builder_test

import (
	"archive/tar"
	"bytes"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"testing"

	"logstore/internal/builder"
	"logstore/internal/logblock"
	"logstore/internal/meta"
	"logstore/internal/oss"
	"logstore/internal/query"
	"logstore/internal/schema"
)

// tarMembers lists the member names of a packed LogBlock.
func tarMembers(t *testing.T, packed []byte) []string {
	t.Helper()
	var names []string
	tr := tar.NewReader(bytes.NewReader(packed))
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			return names
		}
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, hdr.Name)
	}
}

// TestParentLayoutBlockQueriesAndCompacts is the backward-compatibility
// gate of the four-member layout. testdata/parent_layout.tar under
// internal/logblock was packed by the last commit that gave every part
// a tar member of its own (12 rows of tenant 9, two column blocks, 23
// members); objects like it are what a cluster upgraded in place finds
// on OSS. It must open, answer an indexed and a scanning query, and
// merge with a block of the current layout under CompactTenant.
func TestParentLayoutBlockQueriesAndCompacts(t *testing.T) {
	old, err := os.ReadFile("../logblock/testdata/parent_layout.tar")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(tarMembers(t, old)); n != 23 {
		t.Fatalf("fixture has %d tar members; it should be the one-member-per-part layout (23)", n)
	}
	r, err := logblock.OpenReader(logblock.BytesFetcher(old))
	if err != nil {
		t.Fatal(err)
	}
	oldRows, err := r.AllRows()
	if err != nil {
		t.Fatal(err)
	}
	const tenant = 9
	if len(oldRows) != 12 || r.Meta.Tenant != tenant || r.Meta.NumBlocks != 2 {
		t.Fatalf("fixture: %d rows, tenant %d, %d blocks", len(oldRows), r.Meta.Tenant, r.Meta.NumBlocks)
	}

	// The same two queries through the index path and the scan path,
	// against a filter over the materialized rows.
	sch := r.Meta.Schema
	ipCol, logCol := sch.ColumnIndex("ip"), sch.ColumnIndex("log")
	ip := oldRows[0][ipCol].S
	for _, tc := range []struct {
		where string
		keep  func(schema.Row) bool
	}{
		{fmt.Sprintf("ip = '%s'", ip), func(row schema.Row) bool { return row[ipCol].S == ip }},
		{"log MATCH 'served'", func(row schema.Row) bool {
			return strings.Contains(strings.ToLower(row[logCol].S), "served")
		}},
	} {
		q, err := query.Parse("SELECT * FROM request_log WHERE tenant_id = 9 AND ts >= 0 AND ts <= 99999 AND " + tc.where)
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for _, row := range oldRows {
			if tc.keep(row) {
				want++
			}
		}
		if want == 0 {
			t.Fatalf("%s matches no fixture row; the test would prove nothing", tc.where)
		}
		for _, skipping := range []bool{true, false} {
			var stats query.ExecStats
			got, err := query.ExecuteBlock(r, q, query.ExecOptions{DataSkipping: skipping}, &stats)
			if err != nil {
				t.Fatalf("%s (skipping=%v): %v", tc.where, skipping, err)
			}
			if len(got) != want {
				t.Errorf("%s (skipping=%v): %d rows, want %d", tc.where, skipping, len(got), want)
			}
			if skipping && stats.IndexLookups == 0 {
				t.Errorf("%s: the indexed run probed no index", tc.where)
			}
			if !skipping && (stats.IndexLookups != 0 || stats.ColumnBlocksScanned == 0) {
				t.Errorf("%s: the scanning run made %d index lookups and scanned %d column blocks",
					tc.where, stats.IndexLookups, stats.ColumnBlocksScanned)
			}
		}
	}

	// Compaction: the old object registered as it would be after an
	// upgrade, a later block drained by this build, one merge.
	mem := oss.NewMemStore()
	b, catalog := newBuilder(t, builder.Config{}, mem)
	oldKey := meta.TenantPrefix(b.Table(), tenant) + "logblock-legacy.tar"
	if err := mem.Put(oldKey, old); err != nil {
		t.Fatal(err)
	}
	if err := catalog.Register(meta.BlockInfo{
		Tenant: tenant, Path: oldKey, MinTS: r.Meta.MinTS, MaxTS: r.Meta.MaxTS,
		Rows: int64(len(oldRows)), Bytes: int64(len(old)),
	}); err != nil {
		t.Fatal(err)
	}
	timeIdx := sch.TimeIdx()
	newRows := make([]schema.Row, len(oldRows))
	for i, row := range oldRows {
		newRows[i] = append(schema.Row(nil), row...)
		newRows[i][timeIdx] = schema.IntValue(row[timeIdx].I + 1000)
	}
	rs := newRowStore(t)
	if err := rs.Append(newRows...); err != nil {
		t.Fatal(err)
	}
	if n, err := b.DrainStore(rs); err != nil || n != 1 {
		t.Fatalf("drain committed %d blocks, %v; want 1", n, err)
	}
	if merged, err := b.CompactTenant(tenant, 1000); err != nil || merged != 2 {
		t.Fatalf("compact merged %d blocks, %v; want 2", merged, err)
	}
	blocks := catalog.Blocks(tenant)
	if len(blocks) != 1 {
		t.Fatalf("catalog holds %d blocks after the merge, want 1", len(blocks))
	}
	packed, err := mem.Get(blocks[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	if names := tarMembers(t, packed); len(names) != 4 {
		t.Errorf("merged object has members %v, want the four-member layout", names)
	}
	mr, err := logblock.OpenReader(logblock.BytesFetcher(packed))
	if err != nil {
		t.Fatal(err)
	}
	got, err := mr.AllRows()
	if err != nil {
		t.Fatal(err)
	}
	want := append(append([]schema.Row(nil), oldRows...), newRows...)
	sort.SliceStable(want, func(i, j int) bool { return want[i][timeIdx].I < want[j][timeIdx].I })
	if len(got) != len(want) {
		t.Fatalf("merged block holds %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		for ci := range want[i] {
			if !got[i][ci].Equal(want[i][ci]) {
				t.Fatalf("merged row %d column %d: got %v, want %v", i, ci, got[i][ci], want[i][ci])
			}
		}
	}
}
