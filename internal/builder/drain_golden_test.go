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
// footer layout with token-only inverted indexes, no BKD tree on the
// one-tenant column and string blocks at DEFLATE's default level, which
// moved every key once, as the footer layout and the compact index
// encoding did before it. A segment
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
	{"request_log/tenant-0/logblock-0000000000001000-7a68f9a2103a3ddc.tar", 1078},
	{"request_log/tenant-0/logblock-0000000000001000-7b3464a3fc713dc9.tar", 937},
	{"request_log/tenant-0/logblock-0000000000001007-a6e2595140facb94.tar", 984},
	{"request_log/tenant-0/logblock-0000000000001012-640677ad37a52573.tar", 872},
	{"request_log/tenant-1/logblock-0000000000001000-ba29b0d1e874bff5.tar", 986},
	{"request_log/tenant-1/logblock-0000000000001000-cf8167fcd990d008.tar", 988},
	{"request_log/tenant-1/logblock-0000000000001007-ddd05668f079cd78.tar", 722},
	{"request_log/tenant-1/logblock-0000000000001008-e17be7c7bdca8871.tar", 926},
	{"request_log/tenant-2/logblock-0000000000001000-0cda41a77047fb18.tar", 927},
	{"request_log/tenant-2/logblock-0000000000001001-bc1b4cd7cc0e7591.tar", 1086},
	{"request_log/tenant-2/logblock-0000000000001009-6f1fa5935879edcf.tar", 821},
	{"request_log/tenant-2/logblock-0000000000001010-5646c97609809713.tar", 987},
	{"request_log/tenant-3/logblock-0000000000001001-19e668a4bce9d04e.tar", 978},
	{"request_log/tenant-3/logblock-0000000000001006-ce3c6fd59baf38f7.tar", 986},
}
