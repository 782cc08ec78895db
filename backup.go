package logstore

import (
	"fmt"
	"strings"

	"logstore/internal/meta"
	"logstore/internal/oss"
)

// Tenant backup and restore. The paper's tar-packaged LogBlocks were
// designed with exactly these jobs in mind ("we found that traversing a
// large number of files is time-consuming when performing tasks like
// backup, migration, and data expiration"): a tenant's entire history
// is a flat list of immutable objects plus its catalog entries, so
// backup is an object copy and restore is a copy plus re-registration.

// BackupTenant copies every archived LogBlock of the tenant to dst
// under dstPrefix, along with a catalog manifest at
// <dstPrefix>/catalog.json. Returns the number of objects copied.
// Resident (unarchived) rows are not included; call Flush first for a
// point-in-time-complete backup.
func (c *Cluster) BackupTenant(tenant int64, dst oss.Store, dstPrefix string) (int, error) {
	if dst == nil {
		return 0, fmt.Errorf("logstore: nil backup destination")
	}
	dstPrefix = strings.TrimSuffix(dstPrefix, "/")
	blocks := c.catalog.Blocks(tenant)
	snap := meta.NewManager()
	copied := 0
	for _, b := range blocks {
		data, err := c.store.Get(b.Path)
		if err != nil {
			return copied, fmt.Errorf("logstore: backup read %s: %w", b.Path, err)
		}
		dstKey := dstPrefix + "/" + b.Path
		if err := dst.Put(dstKey, data); err != nil {
			return copied, fmt.Errorf("logstore: backup write %s: %w", dstKey, err)
		}
		entry := b
		entry.Path = dstKey
		if err := snap.Register(entry); err != nil {
			return copied, err
		}
		copied++
	}
	manifest, err := snap.Marshal()
	if err != nil {
		return copied, fmt.Errorf("logstore: backup manifest: %w", err)
	}
	if err := dst.Put(dstPrefix+"/catalog.json", manifest); err != nil {
		return copied, fmt.Errorf("logstore: backup manifest write: %w", err)
	}
	return copied, nil
}

// RestoreTenant imports a tenant backup produced by BackupTenant into
// this cluster: objects are copied back into the cluster's store and
// re-registered in the catalog. Existing catalog entries with the same
// paths are overwritten (restore is idempotent). Every manifest entry
// must name an object under srcPrefix whose canonical key lies in its
// own tenant's directory of this cluster's table; a manifest with any
// other entry is refused before anything is written. Returns the
// number of LogBlocks restored.
func (c *Cluster) RestoreTenant(src oss.Store, srcPrefix string) (int, error) {
	if src == nil {
		return 0, fmt.Errorf("logstore: nil restore source")
	}
	srcPrefix = strings.TrimSuffix(srcPrefix, "/")
	manifest, err := src.Get(srcPrefix + "/catalog.json")
	if err != nil {
		return 0, fmt.Errorf("logstore: restore manifest: %w", err)
	}
	snap := meta.NewManager()
	if err := snap.Unmarshal(manifest); err != nil {
		return 0, fmt.Errorf("logstore: restore manifest: %w", err)
	}
	// Rewrite each entry to its canonical key (the backup prefix
	// stripped), refusing the manifest if any key would land outside
	// its tenant's directory: the catalog checkpoint, another tenant's
	// blocks and the shipped WAL are not a backup's to overwrite.
	var entries []meta.BlockInfo
	for _, tenant := range snap.Tenants() {
		for _, b := range snap.Blocks(tenant) {
			prefix := meta.TenantPrefix(c.sch.Name, b.Tenant)
			key, ok := strings.CutPrefix(b.Path, srcPrefix+"/")
			if !ok || !strings.HasPrefix(key, prefix) {
				return 0, fmt.Errorf("logstore: restore manifest: tenant %d entry %q is not under %s/%s", b.Tenant, b.Path, srcPrefix, prefix)
			}
			b.Path = key
			entries = append(entries, b)
		}
	}
	for i, b := range entries {
		data, err := src.Get(srcPrefix + "/" + b.Path)
		if err != nil {
			return i, fmt.Errorf("logstore: restore read %s/%s: %w", srcPrefix, b.Path, err)
		}
		if err := c.store.Put(b.Path, data); err != nil {
			return i, fmt.Errorf("logstore: restore write %s: %w", b.Path, err)
		}
		// The rows are in no row store of this cluster, whatever the
		// backed-up entry recorded.
		b.BornSegment = 0
		if err := c.catalog.Register(b); err != nil {
			return i, err
		}
	}
	return len(entries), nil
}
