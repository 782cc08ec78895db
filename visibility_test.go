package logstore

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"logstore/internal/oss"
)

// rowsAt builds n rows of one tenant with the timestamps ts, ts+1, …:
// distinct timestamps make distinct content, which the ingest path's
// content-derived batch ids need.
func rowsAt(c *Cluster, tenant int64, n int, ts int64) []Row {
	rows := tenantRows(tenant, n, tenant+1)
	timeIdx := c.TableSchema().TimeIdx()
	for i := range rows {
		rows[i][timeIdx] = IntValue(ts + int64(i))
	}
	return rows
}

func countRows(t *testing.T, c *Cluster, tenant, minTS, maxTS int64) int64 {
	t.Helper()
	res, err := c.Query(fmt.Sprintf(
		"SELECT COUNT(*) FROM request_log WHERE tenant_id = %d AND ts >= %d AND ts <= %d", tenant, minTS, maxTS))
	if err != nil {
		t.Fatal(err)
	}
	return res.Count
}

// TestRowsVisibleExactlyOnceDuringDrain: while the archive loop moves a
// row from its row store to a LogBlock, a query sees it through one or
// the other — never both (the drain registers a segment's blocks one by
// one and releases the segment only after the last), never neither (the
// segment may be released between a query's look at the catalog and its
// look at the row store).
func TestRowsVisibleExactlyOnceDuringDrain(t *testing.T) {
	// Many tenants share each segment and every upload takes 2 ms, so a
	// tenant's block is registered long before its segment is released.
	t.Run("ManyTenantsSlowStore", func(t *testing.T) {
		const tenants, perTenant = 120, 5
		cfg := fastConfig()
		cfg.ArchiveInterval = time.Hour // only the Flush below drains
		cfg.Store = oss.NewSimStore(oss.NewMemStore(), oss.DefaultLatencyModel(), 1)
		c := openCluster(t, cfg)
		for tenant := int64(0); tenant < tenants; tenant++ {
			if err := c.Append(rowsAt(c, tenant, perTenant, 1_000)...); err != nil {
				t.Fatal(err)
			}
		}
		flushed := make(chan error, 1)
		go func() { flushed <- c.Flush() }()
		queries, wrong := 0, 0
		for tenant := int64(0); ; tenant = (tenant + 1) % tenants {
			select {
			case err := <-flushed:
				if err != nil {
					t.Fatal(err)
				}
				if c.Stats().ResidentRows != 0 || queries < tenants {
					t.Fatalf("%d rows resident after the flush, %d queries during it", c.Stats().ResidentRows, queries)
				}
				if wrong > 0 {
					t.Fatalf("%d of %d queries during the drain miscounted", wrong, queries)
				}
				return
			default:
			}
			queries++
			if got := countRows(t, c, tenant, 0, 1<<40); got != perTenant {
				if wrong++; wrong <= 5 {
					t.Errorf("tenant %d mid-drain: %d rows, want %d", tenant, got, perTenant)
				}
			}
		}
	})

	// One tenant, nothing slow: each batch is acked, then flushed, and the
	// readers always ask for the batch acked last, which is resident, being
	// drained or archived at that moment.
	t.Run("AppendFlushLoop", func(t *testing.T) {
		const batches, perBatch, stride = 150, 5, 10
		cfg := fastConfig()
		cfg.ArchiveInterval = time.Hour
		c := openCluster(t, cfg)
		var acked atomic.Int64 // number of batches acked
		var queries, wrong atomic.Int64
		done := make(chan struct{})
		var readers sync.WaitGroup
		for r := 0; r < 2; r++ {
			readers.Add(1)
			go func() {
				defer readers.Done()
				for {
					select {
					case <-done:
						return
					default:
					}
					n := acked.Load()
					if n == 0 {
						continue
					}
					lo := n * stride
					res, err := c.Query(fmt.Sprintf(
						"SELECT COUNT(*) FROM request_log WHERE tenant_id = 7 AND ts >= %d AND ts <= %d", lo, lo+stride-1))
					if err != nil {
						t.Error(err)
						return
					}
					queries.Add(1)
					if res.Count != perBatch && wrong.Add(1) <= 5 {
						t.Errorf("batch %d, acked before the query: %d rows, want %d", n, res.Count, perBatch)
					}
				}
			}()
		}
		for n := int64(1); n <= batches; n++ {
			if err := c.Append(rowsAt(c, 7, perBatch, n*stride)...); err != nil {
				t.Fatal(err)
			}
			acked.Store(n)
			if err := c.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		close(done)
		readers.Wait()
		if wrong.Load() > 0 || queries.Load() == 0 {
			t.Fatalf("%d of %d queries miscounted", wrong.Load(), queries.Load())
		}
		if got := countRows(t, c, 7, 0, 1<<40); got != batches*perBatch {
			t.Fatalf("after the loop: %d rows, want %d", got, batches*perBatch)
		}
	})

	// A block is tagged with the row-store segment it was drained from.
	// The row store that replaces a crashed worker's starts over, and its
	// first segment must not pass for the one an older block names, or
	// that block would be hidden for as long as the new segment is
	// resident.
	t.Run("CrashRecover", func(t *testing.T) {
		cfg := fastConfig()
		cfg.Workers = 1
		cfg.ShardsPerWorker = 1
		cfg.DataDir = t.TempDir()
		cfg.ArchiveInterval = time.Hour
		c := openCluster(t, cfg)
		waitCount := func(want int64) {
			t.Helper()
			deadline := time.Now().Add(10 * time.Second)
			for {
				got := countRows(t, c, 1, 0, 1<<40)
				if got == want {
					return
				}
				if got > want || time.Now().After(deadline) {
					t.Fatalf("count = %d, want %d", got, want)
				}
				time.Sleep(2 * time.Millisecond)
			}
		}
		if err := c.Append(rowsAt(c, 1, 5, 1_000)...); err != nil {
			t.Fatal(err)
		}
		waitCount(5)
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		blocks := c.TenantBlocks(1)
		if len(blocks) != 1 || blocks[0].BornSegment == 0 {
			t.Fatalf("blocks after flush = %+v, want one with its segment recorded", blocks)
		}
		if err := c.Append(rowsAt(c, 1, 5, 2_000)...); err != nil {
			t.Fatal(err)
		}
		waitCount(10)
		if err := c.CrashWorker(0); err != nil {
			t.Fatal(err)
		}
		if err := c.RecoverWorker(0); err != nil {
			t.Fatal(err)
		}
		// Replay puts the second batch into the new store's first segment;
		// the pre-crash block keeps counting beside it.
		waitCount(10)
		if c.Stats().ResidentRows != 5 {
			t.Fatalf("resident rows after recovery = %d, want the 5 replayed", c.Stats().ResidentRows)
		}
	})
}
