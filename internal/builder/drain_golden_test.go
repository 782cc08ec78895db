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
// and sizes — to the ones the boxed-row drain (a row store holding
// []schema.Row, before segments kept their rows encoded) gave for the
// same appends. A segment re-drained across
// an upgrade must deduplicate against what the old build committed, so
// neither the grouping by tenant, nor the order within a tenant's run
// (arrival order, stably sorted by time), nor where a run is chunked may
// move. The appends cover four tenants, timestamps out of order with
// ties, empty and non-ASCII strings, a tenant's run chunked at
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
	{"request_log/tenant-0/logblock-0000000000001000-84cb7d800d60dd13.tar", 5632},
	{"request_log/tenant-0/logblock-0000000000001000-9c20b5acd3747f56.tar", 5632},
	{"request_log/tenant-0/logblock-0000000000001007-cd1d34e3585527d7.tar", 5632},
	{"request_log/tenant-0/logblock-0000000000001012-e1dadfaf3b8ab55b.tar", 5120},
	{"request_log/tenant-1/logblock-0000000000001000-1546634226ffb797.tar", 5632},
	{"request_log/tenant-1/logblock-0000000000001000-d2638ac20a442a0e.tar", 5632},
	{"request_log/tenant-1/logblock-0000000000001007-2c9732c51f93ef8d.tar", 5120},
	{"request_log/tenant-1/logblock-0000000000001008-d96310c739784439.tar", 5632},
	{"request_log/tenant-2/logblock-0000000000001000-e8572e52f3267917.tar", 5632},
	{"request_log/tenant-2/logblock-0000000000001001-123749fc096f89ea.tar", 5632},
	{"request_log/tenant-2/logblock-0000000000001009-d9b758b003bd6015.tar", 5120},
	{"request_log/tenant-2/logblock-0000000000001010-7f28539df3d48dde.tar", 5632},
	{"request_log/tenant-3/logblock-0000000000001001-e9281821ac0a19ea.tar", 5632},
	{"request_log/tenant-3/logblock-0000000000001006-ad9ee471246a9f3a.tar", 5632},
}
