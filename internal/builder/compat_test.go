package builder_test

import (
	"archive/tar"
	"bytes"
	"fmt"
	"io"
	"os"
	"slices"
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
// gate of the LogBlock format, run over two objects under
// internal/logblock/testdata that hold the same 12 rows of tenant 9 in
// two column blocks; objects like them are what a cluster upgraded in
// place finds on OSS. parent_layout.tar was packed by the last commit
// that gave every part a tar member of its own (23 members);
// legacy_index.tar by the last one that wrote the legacy index
// encoding (four members). Each must open, answer indexed and scanning
// queries exactly as the same rows packed now do, and merge with a
// block of the current format under CompactTenant.
func TestParentLayoutBlockQueriesAndCompacts(t *testing.T) {
	for _, fx := range []struct {
		file    string
		members int
	}{
		{"parent_layout.tar", 23},
		{"legacy_index.tar", 4},
	} {
		t.Run(fx.file, func(t *testing.T) { checkLegacyObject(t, fx.file, fx.members) })
	}
}

func checkLegacyObject(t *testing.T, file string, members int) {
	old, err := os.ReadFile("../logblock/testdata/" + file)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(tarMembers(t, old)); n != members {
		t.Fatalf("fixture has %d tar members, want %d", n, members)
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
	for ci, cm := range r.Meta.Columns {
		if cm.IndexFormat != logblock.IndexFormatLegacy {
			t.Fatalf("fixture column %d has index format %d; it should be the legacy one", ci, cm.IndexFormat)
		}
	}
	// The same rows packed now, for the answers to agree with.
	built, err := logblock.Build(r.Meta.Schema, oldRows, logblock.BuildOptions{BlockRows: r.Meta.BlockRows})
	if err != nil {
		t.Fatal(err)
	}
	packedNow, err := built.Pack()
	if err != nil {
		t.Fatal(err)
	}
	now, err := logblock.OpenReader(logblock.BytesFetcher(packedNow))
	if err != nil {
		t.Fatal(err)
	}

	// Queries through the index path and the scan path, against a
	// filter over the materialized rows and the same query over the
	// rows packed now.
	sch := r.Meta.Schema
	ipCol, logCol, failCol, latCol, tsCol := sch.ColumnIndex("ip"), sch.ColumnIndex("log"),
		sch.ColumnIndex("fail"), sch.ColumnIndex("latency"), sch.TimeIdx()
	ip, lat, ts := oldRows[0][ipCol].S, oldRows[3][latCol].I, oldRows[5][tsCol].I
	for _, tc := range []struct {
		where string
		keep  func(schema.Row) bool
	}{
		{fmt.Sprintf("ip = '%s'", ip), func(row schema.Row) bool { return row[ipCol].S == ip }},
		{"log MATCH 'served'", func(row schema.Row) bool {
			return strings.Contains(strings.ToLower(row[logCol].S), "served")
		}},
		{"log MATCH 'serv*'", func(row schema.Row) bool {
			return strings.Contains(strings.ToLower(row[logCol].S), "serv")
		}},
		{"fail = 'false'", func(row schema.Row) bool { return strings.EqualFold(row[failCol].S, "false") }},
		{fmt.Sprintf("latency >= %d", lat), func(row schema.Row) bool { return row[latCol].I >= lat }},
		{fmt.Sprintf("ts >= %d AND ts <= %d", ts, ts+3), func(row schema.Row) bool {
			return row[tsCol].I >= ts && row[tsCol].I <= ts+3
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
			var stats, nowStats query.ExecStats
			opts := query.ExecOptions{DataSkipping: skipping}
			got, err := query.ExecuteBlock(r, q, opts, &stats)
			if err != nil {
				t.Fatalf("%s (skipping=%v): %v", tc.where, skipping, err)
			}
			if len(got) != want {
				t.Errorf("%s (skipping=%v): %d rows, want %d", tc.where, skipping, len(got), want)
			}
			fresh, err := query.ExecuteBlock(now, q, opts, &nowStats)
			if err != nil {
				t.Fatalf("%s (skipping=%v) over the rows packed now: %v", tc.where, skipping, err)
			}
			if fmt.Sprint(got) != fmt.Sprint(fresh) || stats != nowStats {
				t.Errorf("%s (skipping=%v): fixture answers %v (%+v), rows packed now %v (%+v)",
					tc.where, skipping, got, stats, fresh, nowStats)
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
	mr, err := logblock.OpenReader(logblock.BytesFetcher(packed))
	if err != nil {
		t.Fatal(err)
	}
	// The merge writes the current layout: its parts plus a manifest
	// and trailer smaller than one tar header.
	parts := mr.Manifest.Meta.Size
	for _, ext := range append(slices.Clone(mr.Manifest.Index), mr.Manifest.Data...) {
		parts += ext.Size
	}
	if framing := int64(len(packed)) - parts; framing < 0 || framing >= 512 {
		t.Errorf("merged object of %d bytes holds %d bytes of parts; want the footer layout", len(packed), parts)
	}
	for ci, cm := range mr.Meta.Columns {
		if cm.Index != schema.IndexNone && cm.IndexFormat != logblock.IndexFormatCompact {
			t.Errorf("merged column %d has index format %d, want the compact one", ci, cm.IndexFormat)
		}
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
