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
// footer layout, which dropped the tar framing and so moved every key
// once, as the compact index encoding did before it. A segment
// re-drained across an upgrade that keeps the object format must
// deduplicate against what the old build committed, so neither the
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
	{"request_log/tenant-0/logblock-0000000000001000-63925625abc9c098.tar", 1155},
	{"request_log/tenant-0/logblock-0000000000001000-dc71a39dee57ca19.tar", 1301},
	{"request_log/tenant-0/logblock-0000000000001007-86d443eadbb551a5.tar", 1181},
	{"request_log/tenant-0/logblock-0000000000001012-7df2956437864030.tar", 995},
	{"request_log/tenant-1/logblock-0000000000001000-709294e9c527e7a6.tar", 1164},
	{"request_log/tenant-1/logblock-0000000000001000-d63bf782f19fff1e.tar", 1200},
	{"request_log/tenant-1/logblock-0000000000001007-8c82a29185e9821d.tar", 797},
	{"request_log/tenant-1/logblock-0000000000001008-0761d0e396228aa9.tar", 1080},
	{"request_log/tenant-2/logblock-0000000000001000-7d995d879ceffbf5.tar", 1133},
	{"request_log/tenant-2/logblock-0000000000001001-1d0bcc6d699c2688.tar", 1315},
	{"request_log/tenant-2/logblock-0000000000001009-f8721e10864edb55.tar", 956},
	{"request_log/tenant-2/logblock-0000000000001010-5858c676c86d5036.tar", 1162},
	{"request_log/tenant-3/logblock-0000000000001001-6095f24380f9552f.tar", 1154},
	{"request_log/tenant-3/logblock-0000000000001006-ad4479ef8349707f.tar", 1164},
}
