package logstore

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"logstore/internal/schema"
)

// TestAppendDoesNotAliasCallerRows: once Append returns, the rows are
// the cluster's. A caller that reuses its batch — here by overwriting
// every cell — changes neither what a real-time query returns nor what
// is archived, whether the log is kept in memory or also shipped
// (see forEachLogCopy).
func TestAppendDoesNotAliasCallerRows(t *testing.T) {
	cfg := fastConfig()
	cfg.ArchiveInterval = time.Hour // only the Flush below drains
	forEachLogCopy(t, cfg, func(t *testing.T, cfg Config) {
		c := openCluster(t, cfg)
		const tenant, n = 3, 20
		rows := rowsAt(c, tenant, n, 1_000)
		want := make([]string, n)
		for i, r := range rows {
			want[i] = fmt.Sprint(r)
		}
		if err := c.Append(rows...); err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			for j := range r {
				if r[j].Kind == schema.String {
					r[j] = StringValue("scribbled")
				} else {
					r[j] = IntValue(-1)
				}
			}
		}

		read := func() []string {
			t.Helper()
			res, err := c.Query(fmt.Sprintf(
				"SELECT * FROM request_log WHERE tenant_id = %d AND ts >= 0 AND ts <= %d", tenant, int64(1)<<40))
			if err != nil {
				t.Fatal(err)
			}
			got := make([]string, len(res.Rows))
			for i, r := range res.Rows {
				got[i] = fmt.Sprint(r)
			}
			return got
		}
		// An ack means the rows are applied: the first read sees them.
		if got := read(); !slices.Equal(got, want) {
			t.Fatalf("real-time query after the caller reused its rows:\n got %q\nwant %q", got, want)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		if resident := c.Stats().ResidentRows; resident != 0 {
			t.Fatalf("%d rows resident after the flush", resident)
		}
		if got := read(); !slices.Equal(got, want) {
			t.Fatalf("archived rows after the caller reused its rows:\n got %q\nwant %q", got, want)
		}
	})
}
