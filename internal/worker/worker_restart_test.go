package worker

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
	"time"

	"logstore/internal/flow"
	"logstore/internal/meta"
	"logstore/internal/oss"
	"logstore/internal/query"
	"logstore/internal/schema"
	"logstore/internal/workload"
)

// realtimeCount is tenant's row count in shard id's row store, read
// once with no wait.
func realtimeCount(t *testing.T, w *Worker, id flow.ShardID, tenant int64) int64 {
	t.Helper()
	q, err := query.Parse(fmt.Sprintf(
		"SELECT COUNT(*) FROM request_log WHERE tenant_id = %d AND ts >= 0", tenant))
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.QueryRealtimeCtx(context.Background(), id, q)
	if err != nil {
		t.Fatal(err)
	}
	return res.Count
}

// TestAddShardAppliesRecoveredTail: a shard rebuilt on its DataDir has
// applied the tail it recovered above the applied mark when AddShard
// returns, so a query made at once sees every acked row.
func TestAddShardAppliesRecoveredTail(t *testing.T) {
	dir := t.TempDir()
	store := oss.NewMemStore()
	catalog := meta.NewManager()
	const shards, rows = 4, 10
	w := newDurableWorker(t, dir, store, catalog, time.Hour)
	for id := flow.ShardID(0); id < shards; id++ {
		if err := w.AddShard(id); err != nil {
			t.Fatal(err)
		}
	}
	gen := workload.NewGenerator(workload.GeneratorConfig{Tenants: 1, Theta: 0, Seed: 5, StartMS: 1000})
	var tenant int64
	for id := flow.ShardID(0); id < shards; id++ {
		batch := gen.Batch(rows)
		tenant = batch[0].Tenant(w.sch)
		if err := w.Append(id, batch); err != nil {
			t.Fatal(err)
		}
	}
	w.Crash()

	w2 := newDurableWorker(t, dir, store, catalog, time.Hour)
	t.Cleanup(w2.Close)
	for id := flow.ShardID(0); id < shards; id++ {
		if err := w2.AddShard(id); err != nil {
			t.Fatal(err)
		}
		if got := realtimeCount(t, w2, id, tenant); got != rows {
			t.Errorf("shard %d: %d of %d acked rows visible right after its AddShard", id, got, rows)
		}
	}
	for id := flow.ShardID(0); id < shards; id++ {
		if got := realtimeCount(t, w2, id, tenant); got != rows {
			t.Errorf("shard %d: %d of %d acked rows visible after the last AddShard", id, got, rows)
		}
	}
}

// legacyBatch is batch k of the rows in testdata/legacy-datadir: n rows
// of tenant 1.
func legacyBatch(k, n int) []schema.Row {
	rows := make([]schema.Row, n)
	for j := range rows {
		rows[j] = schema.Row{
			schema.IntValue(1),
			schema.IntValue(int64(1_000_000 + 100*k + j)),
			schema.StringValue("10.0.0.1"),
			schema.StringValue(fmt.Sprintf("/legacy/%d", k)),
			schema.IntValue(int64(j)),
			schema.StringValue("false"),
			schema.StringValue(fmt.Sprintf("legacy batch %d row %d", k, j)),
		}
	}
	return rows
}

// copyDir copies the files under src into dst.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestLegacyDataDirRecovers opens a DataDir written by the raft node
// that ran elections, before the shard log lost them. Its one WAL,
// shard-0/replica-0, holds, in order:
//
//	S term 1 (vote 0); E1 a no-op; E2..E5 batches 0..3 of 3, 4, 5, 6 rows
//	T 5 (batch 3 never committed)
//	S term 2 (vote 0); E5 a no-op; E6, E7 batches 4, 5 of 7, 8 rows
//	A 6 (term 2) and S term 2 again: a checkpoint after archiving E6
//	E8, E9 batches 6, 7 of 9, 10 rows
//
// Batches 0, 1, 2 and 4 were archived; the fixture holds no object
// store, so their rows are gone, but their ids must still suppress a
// resend. Batches 5, 6 and 7 (27 rows) are above the mark and apply at
// open.
func TestLegacyDataDirRecovers(t *testing.T) {
	dir := t.TempDir()
	copyDir(t, "testdata/legacy-datadir", dir)
	store := oss.NewMemStore()
	catalog := meta.NewManager()
	w := newDurableWorker(t, dir, store, catalog, time.Hour)
	if err := w.AddShard(0); err != nil {
		t.Fatal(err)
	}
	const recovered = 8 + 9 + 10
	if got := realtimeCount(t, w, 0, 1); got != recovered {
		t.Fatalf("recovered %d rows, want %d", got, recovered)
	}
	// A resend of an archived batch, or of one applied at open, is a
	// duplicate; the truncated batch never committed and applies whole.
	for _, resend := range []struct {
		k, n int
		want int64
	}{{1, 4, recovered}, {4, 7, recovered}, {5, 8, recovered}, {3, 6, recovered + 6}} {
		if err := w.Append(0, legacyBatch(resend.k, resend.n)); err != nil {
			t.Fatal(err)
		}
		if got := realtimeCount(t, w, 0, 1); got != resend.want {
			t.Fatalf("after resending batch %d: %d rows, want %d", resend.k, got, resend.want)
		}
	}
	if st := w.ApplyStats(); st.DedupSkips != 3 || st.Lost() {
		t.Fatalf("apply counters %+v, want 3 dedup skips and nothing lost", st)
	}
	w.Crash()

	// The log the new code appended to the legacy one recovers too.
	w2 := newDurableWorker(t, dir, store, catalog, time.Hour)
	t.Cleanup(w2.Close)
	if err := w2.AddShard(0); err != nil {
		t.Fatal(err)
	}
	if got := realtimeCount(t, w2, 0, 1); got != recovered+6 {
		t.Fatalf("second restart recovered %d rows, want %d", got, recovered+6)
	}
	if err := w2.Append(0, legacyBatch(0, 3)); err != nil {
		t.Fatal(err)
	}
	if got := realtimeCount(t, w2, 0, 1); got != recovered+6 {
		t.Fatalf("archived batch 0 applied again after the second restart: %d rows", got)
	}
}
