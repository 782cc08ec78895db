package logstore

import (
	"testing"
	"time"

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
