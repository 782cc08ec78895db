package builder_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"logstore/internal/builder"
	"logstore/internal/oss"
	"logstore/internal/rowstore"
	"logstore/internal/schema"
)

// drainedKey is one LogBlock a drain committed: its object key (which
// ends in the FNV-64a of the packed bytes) and its size.
type drainedKey struct {
	path  string
	bytes int64
}

// TestDrainKeysGolden pins the LogBlocks a drain commits — object keys
// and sizes — for a fixed set of appends. The blocks are the ones the
// boxed-row drain (a row store holding []schema.Row, before segments
// kept their rows encoded) gave; their keys and sizes are those of the
// footer layout with string blocks at DEFLATE's default level and, as
// every block is below logblock.MinIndexedRows, no indexes; each is one
// column block, so its meta holds no block headers, and string bounds
// are cut to 16 bytes. Index admission moved every key once, as the
// footer layout and the compact index encoding did before it. A
// segment re-drained across an upgrade that keeps the object format
// must deduplicate against what the old build committed, so neither the
// grouping by tenant, nor the order within a tenant's run (arrival
// order, stably sorted by time), nor where a run is chunked may move.
// The appends cover four tenants, timestamps out of order with ties,
// empty and non-ASCII strings, a tenant's run chunked at
// MaxRowsPerBlock, and a batch split across a segment seal.
func TestDrainKeysGolden(t *testing.T) {
	sch := schema.RequestLogSchema()
	rs, err := rowstore.New(sch, rowstore.Options{MaxSegmentRows: 50})
	if err != nil {
		t.Fatal(err)
	}
	b, catalog := newBuilder(t, builder.Config{MaxRowsPerBlock: 8}, oss.NewMemStore())
	for batch := 0; batch < 3; batch++ { // 30 rows each: the second straddles the seal at 50
		rows := make([]schema.Row, 30)
		for j := range rows {
			i := batch*30 + j
			log := fmt.Sprintf("GET /items/%d served in %dms", i%9, 3*i)
			switch i % 6 {
			case 1:
				log = ""
			case 4:
				log = fmt.Sprintf("Größe überschritten 用户 %d", i)
			}
			rows[j] = schema.Row{
				schema.IntValue(int64((i*i + i/9) % 4)),
				schema.IntValue(1000 + int64(i*7%13)),
				schema.StringValue(fmt.Sprintf("10.0.0.%d", i%5)),
				schema.StringValue(fmt.Sprintf("/api/v%d", i%3)),
				schema.IntValue(int64(i * 37 % 101)),
				schema.StringValue([]string{"false", "true", ""}[i%3]),
				schema.StringValue(log),
			}
		}
		if err := rs.Append(rows...); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.DrainStore(rs); err != nil {
		t.Fatal(err)
	}
	var got []drainedKey
	for _, tenant := range catalog.Tenants() {
		for _, blk := range catalog.Blocks(tenant) {
			got = append(got, drainedKey{blk.Path, blk.Bytes})
		}
	}
	slices.SortFunc(got, func(a, b drainedKey) int { return strings.Compare(a.path, b.path) })
	if slices.Equal(got, goldenDrainKeys) {
		return
	}
	var sb strings.Builder
	for _, k := range got {
		fmt.Fprintf(&sb, "\t{%q, %d},\n", k.path, k.bytes)
	}
	t.Errorf("drained LogBlocks differ from the golden table; got:\n%s", sb.String())
}

var goldenDrainKeys = []drainedKey{
	{"request_log/tenant-0/logblock-0000000000001000-b80619baefd567d9.tar", 558},
	{"request_log/tenant-0/logblock-0000000000001000-c9cc06b2780bd397.tar", 615},
	{"request_log/tenant-0/logblock-0000000000001007-7a6d3b1671f156a2.tar", 576},
	{"request_log/tenant-0/logblock-0000000000001012-3ec02754eec21011.tar", 510},
	{"request_log/tenant-1/logblock-0000000000001000-9893dfaae52e48d4.tar", 580},
	{"request_log/tenant-1/logblock-0000000000001000-dd1d77415e6d65b1.tar", 582},
	{"request_log/tenant-1/logblock-0000000000001007-4aa124ef4833fc63.tar", 451},
	{"request_log/tenant-1/logblock-0000000000001008-1c86b55975b443d7.tar", 551},
	{"request_log/tenant-2/logblock-0000000000001000-97759093b8caf9d7.tar", 558},
	{"request_log/tenant-2/logblock-0000000000001001-3db7661f1242ad65.tar", 612},
	{"request_log/tenant-2/logblock-0000000000001009-ee18add44c719f4c.tar", 496},
	{"request_log/tenant-2/logblock-0000000000001010-00f2c32283f094c5.tar", 564},
	{"request_log/tenant-3/logblock-0000000000001001-2f19df5cb3e5ac48.tar", 578},
	{"request_log/tenant-3/logblock-0000000000001006-3b4c40c1be116564.tar", 581},
}
