package worker

import (
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

	"logstore/internal/builder"
	"logstore/internal/meta"
	"logstore/internal/oss"
	"logstore/internal/query"
	"logstore/internal/schema"
	"logstore/internal/workload"
)

// flushOnlyWorker is an unreplicated worker with shard 0 whose rows stay
// resident until FlushShard, over a counting store.
func flushOnlyWorker(t *testing.T) (*Worker, *meta.Manager, *oss.Stats) {
	t.Helper()
	stats := &oss.Stats{}
	catalog := meta.NewManager()
	w, err := New(Config{
		ID: 1, ArchiveInterval: time.Hour,
		Builder: builder.Config{Table: "request_log"},
	}, schema.RequestLogSchema(), oss.NewCountingStore(oss.NewMemStore(), stats), catalog)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	if err := w.AddShard(0); err != nil {
		t.Fatal(err)
	}
	return w, catalog, stats
}

func mustParse(t *testing.T, sql string) *query.Query {
	t.Helper()
	q, err := query.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestRealtimeScan: the real-time scan answers every query shape like a
// filter over the appended rows, names the segments it covered, costs an
// empty shard one allocation, and costs a full one a number of
// allocations that does not grow with the matches.
func TestRealtimeScan(t *testing.T) {
	w, _, _ := flushOnlyWorker(t)
	ctx := context.Background()
	sch := schema.RequestLogSchema()
	latIdx, apiIdx, logIdx := sch.ColumnIndex("latency"), sch.ColumnIndex("api"), sch.ColumnIndex("log")
	sel := mustParse(t, "SELECT api, log FROM request_log WHERE tenant_id = 1 AND ts >= 0 AND latency >= 20")

	res, err := w.QueryRealtimeCtx(ctx, 0, sel)
	if err != nil || res == nil || len(res.Rows) != 0 || res.Count != 0 || res.Resident != nil {
		t.Fatalf("empty shard: %+v, %v", res, err)
	}
	if a := testing.AllocsPerRun(100, func() { _, _ = w.QueryRealtimeCtx(ctx, 0, sel) }); a > 1 {
		t.Errorf("empty shard: %.0f allocations per scan, want at most the empty result", a)
	}
	if _, err := w.QueryRealtimeCtx(ctx, 0, mustParse(t, "SELECT log FROM request_log WHERE ts >= 0")); err == nil {
		t.Error("a query without a tenant was accepted by an empty shard")
	}

	g := workload.NewGenerator(workload.GeneratorConfig{Tenants: 3, Theta: 0, Seed: 5, StartMS: 1000})
	rows := g.Batch(3000)
	if err := w.Append(0, rows); err != nil {
		t.Fatal(err)
	}
	var want []schema.Row
	apis := map[string]int64{}
	for _, r := range rows {
		if r.Tenant(sch) == 1 && r[latIdx].I >= 20 {
			want = append(want, schema.Row{r[apiIdx], r[logIdx]})
			apis[r[apiIdx].S]++
		}
	}
	if len(want) < 100 {
		t.Fatalf("only %d matching rows generated", len(want))
	}

	res, err = w.QueryRealtimeCtx(ctx, 0, sel)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(want) || len(res.Resident) != 1 {
		t.Fatalf("%d rows over segments %v, want %d over one", len(res.Rows), res.Resident, len(want))
	}
	for i, r := range res.Rows {
		if len(r) != 2 || cap(r) != 2 || !r[0].Equal(want[i][0]) || !r[1].Equal(want[i][1]) {
			t.Fatalf("row %d = %v (cap %d), want %v", i, r, cap(r), want[i])
		}
	}
	res.Rows[0][0] = schema.StringValue("scribbled") // a result row is a copy, not the store's
	again, err := w.QueryRealtimeCtx(ctx, 0, sel)
	if err != nil || !again.Rows[0][0].Equal(want[0][0]) {
		t.Fatalf("second scan row 0 = %v, %v: the first result aliased the row store", again.Rows[0], err)
	}

	count, err := w.QueryRealtimeCtx(ctx, 0, mustParse(t,
		"SELECT COUNT(*) FROM request_log WHERE tenant_id = 1 AND ts >= 0 AND latency >= 20"))
	if err != nil || count.Count != int64(len(want)) || len(count.Rows) != 0 {
		t.Fatalf("COUNT(*) = %+v, %v; want %d", count, err, len(want))
	}
	grouped, err := w.QueryRealtimeCtx(ctx, 0, mustParse(t,
		"SELECT COUNT(*) FROM request_log WHERE tenant_id = 1 AND ts >= 0 AND latency >= 20 GROUP BY api"))
	if err != nil || len(grouped.Groups) != len(apis) {
		t.Fatalf("GROUP BY: %+v, %v; want %d groups", grouped, err, len(apis))
	}
	for _, gc := range grouped.Groups {
		if gc.Count != apis[gc.Key.S] {
			t.Errorf("group %q = %d, want %d", gc.Key.S, gc.Count, apis[gc.Key.S])
		}
	}

	few := mustParse(t, fmt.Sprintf("SELECT api, log FROM request_log WHERE tenant_id = 1 AND ts >= 0 AND ts <= %d", rows[30][sch.TimeIdx()].I))
	allocs := func(q *query.Query) (float64, int) {
		var n int
		a := testing.AllocsPerRun(20, func() {
			r, _ := w.QueryRealtimeCtx(ctx, 0, q)
			n = len(r.Rows)
		})
		return a, n
	}
	aFew, nFew := allocs(few)
	aMany, nMany := allocs(sel)
	if nFew == 0 || nMany < 10*nFew {
		t.Fatalf("%d and %d matches: the shapes do not differ enough to compare", nFew, nMany)
	}
	// The growth of the match list is the only part that depends on the
	// matches, logarithmically.
	if aMany > aFew+12 {
		t.Errorf("%d matches cost %.0f allocations, %d cost %.0f: allocation per match", nMany, aMany, nFew, aFew)
	}
}

// TestLoneWorkerIsItsOwnReadHome: without a cluster to resolve read
// homes, a worker admits the blocks it commits to its own block cache,
// so it reads what it just flushed without a store round trip.
func TestLoneWorkerIsItsOwnReadHome(t *testing.T) {
	w, catalog, stats := flushOnlyWorker(t)
	g := workload.NewGenerator(workload.GeneratorConfig{Tenants: 3, Theta: 0, Seed: 6, StartMS: 1000})
	if err := w.Append(0, g.Batch(300)); err != nil {
		t.Fatal(err)
	}
	if err := w.FlushShard(0); err != nil {
		t.Fatal(err)
	}
	var paths []string
	var bytes int64
	for _, b := range catalog.Blocks(1) {
		paths = append(paths, b.Path)
	}
	for _, tenant := range catalog.Tenants() {
		_, n := catalog.Usage(tenant)
		bytes += n
	}
	localN, localB, peerN, _, droppedN, _ := w.HandoffStats()
	if localN != 3 || localB != bytes || peerN != 0 || droppedN != 0 {
		t.Fatalf("hand-offs: %d local (%d bytes), %d peer, %d dropped; want 3 local (%d bytes)", localN, localB, peerN, droppedN, bytes)
	}
	reads := func() int64 { return stats.Gets.Value() + stats.RangeGets.Value() + stats.Heads.Value() }
	before := reads() // the commits' own Heads
	q := mustParse(t, "SELECT log FROM request_log WHERE tenant_id = 1 AND ts >= 0")
	res, err := w.QueryBlocksCtx(context.Background(), paths, q, query.ExecOptions{DataSkipping: true})
	if err != nil || len(res.Rows) == 0 {
		t.Fatalf("block query: %d rows, %v", len(res.Rows), err)
	}
	if n := reads() - before; n != 0 {
		t.Fatalf("%d store reads for blocks flushed a moment ago, want 0", n)
	}
	w.Crash()
	if w.AdmitBlock("request_log/tenant-1/x.tar", []byte("x")) {
		t.Fatal("a crashed worker admitted a block")
	}
}

// TestRealtimePredicatesOnKeys: predicates on the tenant and time
// columns — which the row tables decide for every candidate when they
// can — answer like a filter over the appended rows, including the ones
// they cannot decide: a second tenant equality, !=, bounds at the ends
// of int64, an empty range.
func TestRealtimePredicatesOnKeys(t *testing.T) {
	w, _, _ := flushOnlyWorker(t)
	sch := schema.RequestLogSchema()
	g := workload.NewGenerator(workload.GeneratorConfig{Tenants: 3, Theta: 0, Seed: 8, StartMS: 1000})
	rows := g.Batch(600)
	if err := w.Append(0, rows); err != nil {
		t.Fatal(err)
	}
	mid := rows[300][sch.TimeIdx()].I
	for _, where := range []string{
		"tenant_id = 1",
		"tenant_id = 1 AND tenant_id = 2",
		"tenant_id = 1 AND tenant_id != 1",
		"tenant_id = 1 AND tenant_id >= 0 AND tenant_id < 2",
		fmt.Sprintf("tenant_id = 2 AND ts >= %d", mid),
		fmt.Sprintf("tenant_id = 2 AND ts > %d AND ts <= %d", mid, mid+40),
		fmt.Sprintf("tenant_id = 2 AND ts = %d", mid),
		fmt.Sprintf("tenant_id = 2 AND ts != %d", mid),
		fmt.Sprintf("tenant_id = 2 AND ts < %d AND ts > %d", mid, mid),
		"tenant_id = 0 AND ts > 9223372036854775807",
		"tenant_id = 0 AND ts < -9223372036854775808",
		"tenant_id = 0 AND ts <= 9223372036854775807 AND latency >= 50",
	} {
		q := mustParse(t, "SELECT ts FROM request_log WHERE "+where)
		var want []int64
		for _, r := range rows {
			if q.EvalRowAll(sch, r) {
				want = append(want, r[sch.TimeIdx()].I)
			}
		}
		res, err := w.QueryRealtimeCtx(context.Background(), 0, q)
		if err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		got := make([]int64, len(res.Rows))
		for i, r := range res.Rows {
			got[i] = r[0].I
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: %d rows, want %d", where, len(got), len(want))
		}
		count, err := w.QueryRealtimeCtx(context.Background(), 0, mustParse(t, "SELECT COUNT(*) FROM request_log WHERE "+where))
		if err != nil || count.Count != int64(len(want)) {
			t.Errorf("%s: COUNT(*) = %d, %v; want %d", where, count.Count, err, len(want))
		}
	}
}
