package logstore_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"logstore"
	"logstore/internal/backpressure"
	"logstore/internal/flow"
	"logstore/internal/httpapi"
	"logstore/internal/worker"
)

// leadFromReplica0 leaves the shard's raft group led by replica 0 — the
// replica whose applies SlowShardApply delays — with replica 2 down. It
// needs no luck with election timers: replica 1 is made to miss a
// committed batch, so once replica 2 is gone raft's election restriction
// lets only replica 0 win.
func leadFromReplica0(t *testing.T, c *logstore.Cluster, w *worker.Worker, shard flow.ShardID, batches [2][]logstore.Row) {
	t.Helper()
	steps := []func() error{
		func() error { return w.KillShardReplica(shard, 1) },
		func() error { return c.Append(batches[0]...) }, // commits on replicas 0 and 2
		func() error { return w.KillShardReplica(shard, 2) },
		func() error { return w.RestartShardReplica(shard, 1) }, // memory-backed: comes back empty
		func() error { return c.Append(batches[1]...) },         // commits under the only possible leader
	}
	for i, step := range steps {
		if err := step(); err != nil {
			t.Fatalf("pinning the leader, step %d: %v", i, err)
		}
	}
}

// TestBackpressureSurfacesToClient is the paper's BFC end to end. With
// two-item raft queues and the leader's applies held, four committed
// batches fill the apply side, the leader stops draining its sync_queue,
// two appends park there, and every further append is refused at
// enqueue: Append returns backpressure.ErrBackpressure, the HTTP API
// answers 429, the parked appends' bytes show in the memory proxy, and
// once the hold is lifted every batch that was not refused — and none
// that was — is readable, exactly once.
func TestBackpressureSurfacesToClient(t *testing.T) {
	const (
		writers   = 8 // even ones call Append, odd ones POST /append
		perWriter = 20
		batchRows = 20
		hold      = 500 * time.Millisecond
	)
	c, err := logstore.Open(logstore.Config{
		Workers: 1, ShardsPerWorker: 1, Replicas: 3,
		RaftQueueItems:  2,
		RaftTick:        2 * time.Millisecond,
		ArchiveInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(httpapi.Handler(c))
	defer func() {
		srv.Close()
		c.Close()
	}()
	shard := c.ShardIDs()[0]
	wid, _ := c.ShardOwner(shard)
	w, _ := c.Worker(wid)

	// Tenant n's batch i holds timestamps i*batchRows+1 …, all distinct.
	batch := func(tenant int64, i int) []httpapi.Record {
		recs := make([]httpapi.Record, batchRows)
		for j := range recs {
			recs[j] = httpapi.Record{
				Tenant: tenant, TS: int64(i*batchRows + j + 1), IP: "10.0.0.1", API: "/api/v1/items",
				Latency: 12, Fail: "false", Log: fmt.Sprintf("GET /api/v1/items %d ok", j),
			}
		}
		return recs
	}
	rowsOf := func(recs []httpapi.Record) []logstore.Row {
		rows := make([]logstore.Row, len(recs))
		for i, r := range recs {
			rows[i] = r.Row(0)
		}
		return rows
	}
	leadFromReplica0(t, c, w, shard, [2][]logstore.Row{rowsOf(batch(0, 0)), rowsOf(batch(0, 1))})
	// What one parked append holds: its batch as a raft proposal.
	proposalBytes := int64(len(worker.EncodeGroupProposal([][]byte{worker.AppendSubProposal(nil, rowsOf(batch(1, 0)))})))

	if err := c.SlowShardApply(shard, hold); err != nil {
		t.Fatal(err)
	}
	var refused atomic.Int64
	acked := make([]int64, writers) // rows, by writer
	var wg sync.WaitGroup
	for wr := 0; wr < writers; wr++ {
		wg.Add(1)
		go func(wr int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				recs := batch(int64(wr+1), i)
				if wr%2 == 0 {
					err := c.Append(rowsOf(recs)...)
					if errors.Is(err, backpressure.ErrBackpressure) {
						refused.Add(1)
						return
					}
					if err != nil {
						t.Errorf("writer %d batch %d: %v", wr, i, err)
						return
					}
				} else {
					body, _ := json.Marshal(recs)
					resp, err := http.Post(srv.URL+"/append", "application/json", bytes.NewReader(body))
					if err != nil {
						t.Errorf("writer %d batch %d: %v", wr, i, err)
						return
					}
					resp.Body.Close()
					if resp.StatusCode == http.StatusTooManyRequests {
						refused.Add(1)
						return
					}
					if resp.StatusCode != http.StatusOK {
						t.Errorf("writer %d batch %d: HTTP %d", wr, i, resp.StatusCode)
						return
					}
				}
				acked[wr] += batchRows
			}
		}(wr)
	}

	// Two writers park in the sync_queue; the other six are each refused.
	for deadline := time.Now().Add(10 * time.Second); refused.Load() < writers-2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d appends refused with the apply side held, want %d", refused.Load(), writers-2)
		}
	}
	// Everything a blocked append holds is in a bounded queue the memory
	// proxy reads: two parked proposals, two more awaiting apply. The
	// sixth refusal can land before the last of the four reaches its
	// queue, and entries move between the replicas' queues between two
	// reads, so poll until one reading of each shows both bounds — for
	// well under the hold, inside which none of the four can leave.
	got, proxy := w.MemoryFootprint(), c.MemoryProxy()
	for deadline := time.Now().Add(hold / 4); (got < 4*proposalBytes || proxy < got) && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		got, proxy = w.MemoryFootprint(), c.MemoryProxy()
	}
	if got < 4*proposalBytes || proxy < got {
		t.Fatalf("memory footprint %d (cluster proxy %d) with full queues, want at least 4 proposals of %d bytes",
			got, proxy, proposalBytes)
	}
	if err := c.SlowShardApply(shard, 0); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	for wr, want := range acked {
		sql := fmt.Sprintf("SELECT COUNT(*) FROM request_log WHERE tenant_id = %d AND ts >= 0 AND ts <= 99999", wr+1)
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
			res, err := c.Query(sql)
			if err != nil {
				t.Fatal(err)
			}
			if res.Count == want {
				break
			}
			if res.Count > want || time.Now().After(deadline) {
				t.Fatalf("writer %d: %d rows readable, %d acked", wr, res.Count, want)
			}
		}
	}
	if st := c.ApplyStats(); st.DedupSkips != 0 || st.DecodeFails+st.AppendFails+st.FrameFails != 0 {
		t.Fatalf("apply counters %+v: nothing was resent and nothing may be lost", st)
	}
}
