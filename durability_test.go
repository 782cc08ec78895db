package logstore

import (
	"testing"
	"time"

	"logstore/internal/oss"
	"logstore/internal/workload"
)

func TestDurableRaftLogOnDisk(t *testing.T) {
	cfg := fastConfig()
	cfg.Workers = 1
	cfg.ShardsPerWorker = 1
	cfg.DataDir = t.TempDir()
	c := openCluster(t, cfg)
	g := workload.NewGenerator(workload.GeneratorConfig{Tenants: 2, Theta: 0, Seed: 9, StartMS: 100})
	if err := c.Append(g.Batch(100)...); err != nil {
		t.Fatal(err)
	}
	// Visibility through raft apply.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		res, err := c.Query("SELECT COUNT(*) FROM request_log WHERE tenant_id = 0 AND ts >= 0 AND ts <= 99999")
		if err != nil {
			t.Fatal(err)
		}
		if res.Count > 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("durable-mode writes never visible")
}

func TestClusterRestartRecoversData(t *testing.T) {
	// A full cluster restart over the same object store and raft data
	// directory: archived data reappears through the recovered catalog,
	// with no duplicates (the raft WALs were checkpointed after the
	// shutdown drain).
	store := oss.NewMemStore()
	dataDir := t.TempDir()
	cfg := fastConfig()
	cfg.Workers = 1
	cfg.ShardsPerWorker = 1
	cfg.Store = store
	cfg.DataDir = dataDir

	c1, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := workload.NewGenerator(workload.GeneratorConfig{Tenants: 2, Theta: 0, Seed: 13, StartMS: 1000})
	if err := c1.Append(g.Batch(200)...); err != nil {
		t.Fatal(err)
	}
	countSQL := "SELECT COUNT(*) FROM request_log WHERE tenant_id = 0 AND ts >= 0 AND ts <= 99999999"
	var want int64
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		res, err := c1.Query(countSQL)
		if err != nil {
			t.Fatal(err)
		}
		if res.Count > 0 {
			want = res.Count
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if want == 0 {
		t.Fatal("writes never visible before restart")
	}
	c1.Close() // drains to OSS, checkpoints WALs and catalog

	c2, err := Open(cfg) // same store, same data dir
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	// Poll until the restarted cluster answers with the rows it had.
	deadline = time.Now().Add(5 * time.Second)
	var got int64 = -1
	for time.Now().Before(deadline) {
		res, err := c2.Query(countSQL)
		if err != nil {
			t.Fatal(err)
		}
		got = res.Count
		if got >= want {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got != want {
		t.Fatalf("after restart count = %d, want %d (lost or duplicated rows)", got, want)
	}
	// Steady state: give replay a moment and re-check for duplicates.
	time.Sleep(100 * time.Millisecond)
	res, err := c2.Query(countSQL)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != want {
		t.Fatalf("duplicates after replay: %d vs %d", res.Count, want)
	}
}

func TestClusterRestartOnDirStore(t *testing.T) {
	// Fully durable single-machine deployment: directory-backed object
	// store + on-disk raft WALs. After a restart everything is
	// queryable and exact.
	storeDir := t.TempDir() + "/objects"
	dataDir := t.TempDir()
	open := func() *Cluster {
		ds, err := oss.NewDirStore(storeDir)
		if err != nil {
			t.Fatal(err)
		}
		cfg := fastConfig()
		cfg.Workers = 1
		cfg.ShardsPerWorker = 1
		cfg.Store = ds
		cfg.DataDir = dataDir
		c, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	c1 := open()
	g := workload.NewGenerator(workload.GeneratorConfig{Tenants: 3, Theta: 0, Seed: 14, StartMS: 5000})
	if err := c1.Append(g.Batch(300)...); err != nil {
		t.Fatal(err)
	}
	countSQL := "SELECT COUNT(*) FROM request_log WHERE tenant_id = 1 AND ts >= 0 AND ts <= 99999999"
	var want int64
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		res, err := c1.Query(countSQL)
		if err != nil {
			t.Fatal(err)
		}
		if res.Count >= 100 {
			want = res.Count
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if want == 0 {
		t.Fatal("writes never fully visible")
	}
	c1.Close()

	c2 := open()
	defer c2.Close()
	res, err := c2.Query(countSQL)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != want {
		t.Fatalf("restarted count = %d, want %d", res.Count, want)
	}
	// Full-text search works over the recovered, disk-resident blocks.
	res, err = c2.Query("SELECT COUNT(*) FROM request_log WHERE tenant_id = 1 AND ts >= 0 AND ts <= 99999999 AND log MATCH 'tenant'")
	if err != nil {
		t.Fatal(err)
	}
	if res.Count == 0 {
		t.Fatal("full-text over recovered blocks found nothing")
	}
}

// TestDataDirSurvivesCrashAtEveryReplicaCount: DataDir makes the raft
// log survive the process, whether or not the log is also shipped (see
// forEachLogCopy). 500 acked rows stay resident (no archive cycle
// runs), the worker is killed, and the rebuilt worker must replay
// exactly those 500 from its WAL.
func TestDataDirSurvivesCrashAtEveryReplicaCount(t *testing.T) {
	cfg := fastConfig()
	cfg.Workers = 1
	cfg.ShardsPerWorker = 1
	cfg.ArchiveInterval = time.Hour
	cfg.DataDir = t.TempDir()
	forEachLogCopy(t, cfg, func(t *testing.T, cfg Config) {
		c := openCluster(t, cfg)
		g := workload.NewGenerator(workload.GeneratorConfig{Tenants: 1, Theta: 0, Seed: 21, StartMS: 1000})
		for i := 0; i < 5; i++ {
			if err := c.Append(g.Batch(100)...); err != nil {
				t.Fatal(err)
			}
		}
		const countSQL = "SELECT COUNT(*) FROM request_log WHERE tenant_id = 0 AND ts >= 0 AND ts <= 99999999"
		count := func() int64 {
			t.Helper()
			res, err := c.Query(countSQL)
			if err != nil {
				t.Fatal(err)
			}
			return res.Count
		}
		waitCount := func(what string) {
			t.Helper()
			deadline := time.Now().Add(5 * time.Second)
			for count() != 500 && time.Now().Before(deadline) {
				time.Sleep(5 * time.Millisecond)
			}
			if got := count(); got != 500 {
				t.Fatalf("%s: COUNT(*) = %d, want 500", what, got)
			}
		}
		waitCount("before the crash")
		id := c.WorkerIDs()[0]
		if err := c.CrashWorker(id); err != nil {
			t.Fatal(err)
		}
		if err := c.RecoverWorker(id); err != nil {
			t.Fatal(err)
		}
		waitCount("after recovery")
		time.Sleep(50 * time.Millisecond) // a late replay would double rows
		if got := count(); got != 500 {
			t.Fatalf("after replay settled: COUNT(*) = %d, want 500", got)
		}
	})
}
