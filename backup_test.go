package logstore

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"logstore/internal/meta"
	"logstore/internal/oss"
	"logstore/internal/workload"
)

func TestBackupRestoreTenant(t *testing.T) {
	c := openCluster(t, fastConfig())
	g := workload.NewGenerator(workload.GeneratorConfig{Tenants: 3, Theta: 0, Seed: 12, StartMS: 1000})
	if err := c.Append(g.Batch(600)...); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	countSQL := "SELECT COUNT(*) FROM request_log WHERE tenant_id = 1 AND ts >= 0 AND ts <= 99999999"
	orig, err := c.Query(countSQL)
	if err != nil {
		t.Fatal(err)
	}
	if orig.Count == 0 {
		t.Fatal("no data to back up")
	}

	// Backup tenant 1 to a separate store.
	vault := oss.NewMemStore()
	copied, err := c.BackupTenant(1, vault, "backups/2026-07-05")
	if err != nil {
		t.Fatal(err)
	}
	if copied != len(c.TenantBlocks(1)) {
		t.Fatalf("copied %d of %d blocks", copied, len(c.TenantBlocks(1)))
	}
	for _, b := range c.TenantBlocks(1) {
		if b.BornSegment == 0 {
			t.Fatalf("drained block %+v does not name its segment", b)
		}
	}
	if _, err := vault.Get("backups/2026-07-05/catalog.json"); err != nil {
		t.Fatal("manifest missing from backup")
	}

	// Disaster: expire tenant 1 entirely.
	c.SetRetention(1, time.Millisecond)
	if removed := c.ExpireNow(time.Now().UnixMilli() + 365*24*3600_000); removed == 0 {
		t.Fatal("expiration removed nothing")
	}
	c.SetRetention(1, 0)
	gone, err := c.Query(countSQL)
	if err != nil {
		t.Fatal(err)
	}
	if gone.Count != 0 {
		t.Fatalf("tenant 1 still has %d rows after expiry", gone.Count)
	}

	// Restore from the vault.
	restored, err := c.RestoreTenant(vault, "backups/2026-07-05")
	if err != nil {
		t.Fatal(err)
	}
	if restored != copied {
		t.Fatalf("restored %d of %d blocks", restored, copied)
	}
	for _, b := range c.TenantBlocks(1) {
		if b.BornSegment != 0 {
			t.Fatalf("restored block %+v claims to be born from a segment of this cluster", b)
		}
	}
	back, err := c.Query(countSQL)
	if err != nil {
		t.Fatal(err)
	}
	if back.Count != orig.Count {
		t.Fatalf("restored count %d, original %d", back.Count, orig.Count)
	}
	// Restore is idempotent.
	if again, err := c.RestoreTenant(vault, "backups/2026-07-05"); err != nil || again != copied {
		t.Fatalf("second restore: %d, %v", again, err)
	}
	back2, _ := c.Query(countSQL)
	if back2.Count != orig.Count {
		t.Fatalf("idempotent restore broke count: %d", back2.Count)
	}
	// Other tenants untouched by tenant-1 operations.
	other, err := c.Query("SELECT COUNT(*) FROM request_log WHERE tenant_id = 0 AND ts >= 0 AND ts <= 99999999")
	if err != nil {
		t.Fatal(err)
	}
	if other.Count == 0 {
		t.Fatal("tenant 0 data disturbed")
	}
}

// TestRestoreTenantRefusesForeignKeys: a backup manifest may restore a
// tenant's LogBlocks and nothing else. A manifest naming a key outside
// the backup, or one in another tenant's directory, is refused before
// anything is written: the catalog checkpoint survives, and the
// tenant's queries still answer.
func TestRestoreTenantRefusesForeignKeys(t *testing.T) {
	mem := oss.NewMemStore()
	cfg := fastConfig()
	cfg.Store = mem
	first := openCluster(t, cfg)
	g := workload.NewGenerator(workload.GeneratorConfig{Tenants: 3, Theta: 0, Seed: 12, StartMS: 1000})
	if err := first.Append(g.Batch(600)...); err != nil {
		t.Fatal(err)
	}
	first.Close() // archives everything and writes the catalog checkpoint
	checkpoint, err := mem.Get("meta/checkpoint.json")
	if err != nil {
		t.Fatalf("no catalog checkpoint after Close: %v", err)
	}
	c := openCluster(t, cfg)
	countSQL := "SELECT COUNT(*) FROM request_log WHERE tenant_id = 1 AND ts >= 0 AND ts <= 99999999"
	orig, err := c.Query(countSQL)
	if err != nil {
		t.Fatal(err)
	}
	if orig.Count == 0 {
		t.Fatal("no data to back up")
	}

	for _, bad := range []string{
		"meta/checkpoint.json",                   // outside the backup
		"bk/request_log/tenant-2/logblock-x.tar", // another tenant's directory
		"bk/meta/checkpoint.json",                // outside every tenant's directory
	} {
		vault := oss.NewMemStore()
		if _, err := c.BackupTenant(1, vault, "bk"); err != nil {
			t.Fatal(err)
		}
		raw, err := vault.Get("bk/catalog.json")
		if err != nil {
			t.Fatal(err)
		}
		manifest := meta.NewManager()
		if err := manifest.Unmarshal(raw); err != nil {
			t.Fatal(err)
		}
		if err := manifest.Register(meta.BlockInfo{Tenant: 1, Path: bad, Rows: 1}); err != nil {
			t.Fatal(err)
		}
		if raw, err = manifest.Marshal(); err != nil {
			t.Fatal(err)
		}
		if err := vault.Put("bk/catalog.json", raw); err != nil {
			t.Fatal(err)
		}
		if err := vault.Put(bad, []byte("not a catalog")); err != nil {
			t.Fatal(err)
		}
		before, err := mem.List("")
		if err != nil {
			t.Fatal(err)
		}

		if n, err := c.RestoreTenant(vault, "bk"); err == nil {
			t.Fatalf("manifest entry %q: restored %d blocks, want an error", bad, n)
		}
		if now, err := mem.Get("meta/checkpoint.json"); err != nil || !bytes.Equal(now, checkpoint) {
			t.Fatalf("manifest entry %q: catalog checkpoint changed (err %v)", bad, err)
		}
		if after, err := mem.List(""); err != nil || !slices.Equal(after, before) {
			t.Fatalf("manifest entry %q: refused restore wrote to the store (err %v)", bad, err)
		}
		res, err := c.Query(countSQL)
		if err != nil {
			t.Fatalf("manifest entry %q: tenant query after refused restore: %v", bad, err)
		}
		if res.Count != orig.Count {
			t.Fatalf("manifest entry %q: count %d after refused restore, want %d", bad, res.Count, orig.Count)
		}
	}
}

func TestBackupValidation(t *testing.T) {
	c := openCluster(t, fastConfig())
	if _, err := c.BackupTenant(1, nil, "x"); err == nil {
		t.Error("nil destination accepted")
	}
	if _, err := c.RestoreTenant(nil, "x"); err == nil {
		t.Error("nil source accepted")
	}
	if _, err := c.RestoreTenant(oss.NewMemStore(), "missing"); err == nil {
		t.Error("missing manifest accepted")
	}
	// Backing up a tenant with no data copies nothing but still writes
	// an (empty) manifest.
	vault := oss.NewMemStore()
	n, err := c.BackupTenant(42, vault, "b")
	if err != nil || n != 0 {
		t.Fatalf("empty backup: %d, %v", n, err)
	}
	if _, err := vault.Get("b/catalog.json"); err != nil {
		t.Error("empty backup missing manifest")
	}
}
