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
	"logstore/internal/httpapi"
	"logstore/internal/worker"
)

// TestBackpressureSurfacesToClient is the paper's BFC end to end. With
// two-item raft queues and the shard's applies held, the first batches
// commit and fill the apply side (one applying, two in the apply_queue,
// at most two more held back from it), the node stops draining its
// sync_queue, two appends park there, and every further append is
// refused at enqueue: Append returns backpressure.ErrBackpressure, the
// HTTP API answers 429, and the queued appends' bytes show in the
// memory proxy. A refused writer sends the same batch again a moment
// later. At most seven of the sixteen writers' batches fit, so both
// halves meet refusals. Once the hold is lifted every batch is acked,
// and each is readable exactly once: a refused attempt left nothing.
func TestBackpressureSurfacesToClient(t *testing.T) {
	const (
		writers   = 16 // even ones call Append, odd ones POST /append
		perWriter = 20
		batchRows = 20
		hold      = 500 * time.Millisecond
	)
	c, err := logstore.Open(logstore.Config{
		Workers: 1, ShardsPerWorker: 1,
		RaftQueueItems:  2,
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
	// What one queued append holds: its batch as a raft proposal.
	proposalBytes := int64(len(worker.EncodeGroupProposal([][]byte{worker.AppendSubProposal(nil, rowsOf(batch(1, 0)))})))

	if err := c.SlowShardApply(shard, hold); err != nil {
		t.Fatal(err)
	}
	var refused [2]atomic.Int64     // by writer parity: Append, POST /append
	acked := make([]int64, writers) // rows, by writer
	var wg sync.WaitGroup
	for wr := 0; wr < writers; wr++ {
		wg.Add(1)
		go func(wr int) {
			defer wg.Done()
			for i := 0; i < perWriter; {
				recs := batch(int64(wr+1), i)
				if wr%2 == 0 {
					err := c.Append(rowsOf(recs)...)
					if errors.Is(err, backpressure.ErrBackpressure) {
						refused[0].Add(1)
						time.Sleep(time.Millisecond)
						continue
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
						refused[1].Add(1)
						time.Sleep(time.Millisecond)
						continue
					}
					if resp.StatusCode != http.StatusOK {
						t.Errorf("writer %d batch %d: HTTP %d", wr, i, resp.StatusCode)
						return
					}
				}
				acked[wr] += batchRows
				i++
			}
		}(wr)
	}

	// A refusal means the sync_queue was full. The node stops draining
	// it only once the apply_queue is full too, and the refused writers'
	// retries keep it full from then on.
	for deadline := time.Now().Add(10 * time.Second); refused[0].Load()+refused[1].Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no append refused with the apply side held")
		}
	}
	// Everything a blocked append holds is in a bounded queue the memory
	// proxy reads: two parked proposals, two more awaiting apply. Poll
	// until one reading of each shows both bounds — for well under the
	// hold, inside which none of the four can leave.
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
	if refused[0].Load() == 0 || refused[1].Load() == 0 {
		t.Fatalf("refusals: %d by Append, %d by POST /append; want both", refused[0].Load(), refused[1].Load())
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
