// Package meta implements the controller's metadata manager (paper
// §3.1): the per-tenant catalog of LogBlocks on object storage — the
// "LogBlock map" keyed by <tenant, min_ts, max_ts> that query planning
// prunes against (Figure 8, step 1) — plus per-tenant retention
// policies driving the expiration tasks, and byte accounting for
// billing. "The metadata manager in the controller will update the
// information of each tenant, including the path, size and timestamp
// range of the new LogBlocks."
package meta

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"time"
)

// BlockInfo is one LogBlock's catalog entry.
type BlockInfo struct {
	Tenant    int64  `json:"tenant"`
	Path      string `json:"path"` // object-storage key
	MinTS     int64  `json:"min_ts"`
	MaxTS     int64  `json:"max_ts"`
	Rows      int64  `json:"rows"`
	Bytes     int64  `json:"bytes"`
	CreatedMS int64  `json:"created_ms"`
	// BornSegment is the id of the row-store segment a drained block's
	// rows came from (rowstore.Segment.ID, unique across stores and
	// restarts); 0 = unknown or none, as for compaction outputs, restored
	// backups and entries written before the field existed. Between the
	// block's registration and the segment's release the rows are in
	// both places, and a query that scanned the segment uses the tag to
	// leave the block out (broker.ExecuteContext).
	BornSegment uint64 `json:"born_segment,omitempty"`
}

// Manager is the metadata manager. Safe for concurrent use.
//
// A path is an object-storage key, so it names one object of one
// tenant: the catalog holds at most one entry per path. byPath indexes
// every entry of blocks, which makes the duplicate check, Has and the
// size lookup O(1) and locates an entry in its tenant's sorted list by
// binary search.
type Manager struct {
	mu        sync.RWMutex
	blocks    map[int64][]BlockInfo // per tenant, sorted by (MinTS, Path)
	byPath    map[string]BlockInfo  // every entry of blocks, by Path
	retention map[int64]time.Duration
}

// NewManager returns an empty catalog.
func NewManager() *Manager {
	return &Manager{
		blocks:    make(map[int64][]BlockInfo),
		byPath:    make(map[string]BlockInfo),
		retention: make(map[int64]time.Duration),
	}
}

func (info BlockInfo) validate() error {
	if info.Path == "" {
		return fmt.Errorf("meta: empty block path")
	}
	if info.MinTS > info.MaxTS {
		return fmt.Errorf("meta: block %s has inverted time range [%d, %d]", info.Path, info.MinTS, info.MaxTS)
	}
	return nil
}

// before is the catalog order of a tenant's list.
func before(a, b BlockInfo) bool {
	if a.MinTS != b.MinTS {
		return a.MinTS < b.MinTS
	}
	return a.Path < b.Path
}

// position returns where info sits (or would be inserted) in list.
func position(list []BlockInfo, info BlockInfo) int {
	return sort.Search(len(list), func(i int) bool { return !before(list[i], info) })
}

// ownedElsewhereLocked reports an entry under info's path that belongs
// to another tenant: one object cannot be two tenants' LogBlock.
func (m *Manager) ownedElsewhereLocked(info BlockInfo) error {
	if old, ok := m.byPath[info.Path]; ok && old.Tenant != info.Tenant {
		return fmt.Errorf("meta: block %s of tenant %d is already registered to tenant %d", info.Path, info.Tenant, old.Tenant)
	}
	return nil
}

// putLocked inserts info, replacing the entry under the same path.
func (m *Manager) putLocked(info BlockInfo) {
	m.removeLocked(info.Tenant, info.Path)
	list := m.blocks[info.Tenant]
	m.blocks[info.Tenant] = slices.Insert(list, position(list, info), info)
	m.byPath[info.Path] = info
}

// removeLocked drops the tenant's entry under path, if it has one.
func (m *Manager) removeLocked(tenant int64, path string) {
	old, ok := m.byPath[path]
	if !ok || old.Tenant != tenant {
		return
	}
	list := m.blocks[tenant]
	i := position(list, old)
	if list = slices.Delete(list, i, i+1); len(list) == 0 {
		delete(m.blocks, tenant)
	} else {
		m.blocks[tenant] = list
	}
	delete(m.byPath, path)
}

// Register adds (or replaces, by path) a LogBlock entry.
func (m *Manager) Register(info BlockInfo) error {
	if err := info.validate(); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.ownedElsewhereLocked(info); err != nil {
		return err
	}
	m.putLocked(info)
	return nil
}

// Lookup returns the catalog entry of the object stored under path.
// The read path takes the object's size from it (BlockInfo.Bytes)
// instead of probing object storage, and the data builder's archive
// commit asks it whether the block it is about to commit is already
// registered.
func (m *Manager) Lookup(path string) (BlockInfo, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	b, ok := m.byPath[path]
	return b, ok
}

// Replace atomically swaps a set of a tenant's block entries: every
// path in removePaths is dropped and every entry in add is registered,
// under one write lock. Compaction commits through this so a
// concurrent query never observes both the source blocks and their
// merged replacement (no double counting) nor neither (no lost rows).
func (m *Manager) Replace(tenant int64, removePaths []string, add []BlockInfo) error {
	for _, info := range add {
		if err := info.validate(); err != nil {
			return err
		}
		if info.Tenant != tenant {
			return fmt.Errorf("meta: block %s tenant %d in replace for tenant %d", info.Path, info.Tenant, tenant)
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, info := range add {
		if err := m.ownedElsewhereLocked(info); err != nil {
			return err
		}
	}
	for _, p := range removePaths {
		m.removeLocked(tenant, p)
	}
	for _, info := range add {
		m.putLocked(info)
	}
	return nil
}

// Remove deletes a block entry by tenant and path; unknown paths are
// ignored (idempotent, mirroring object deletion).
func (m *Manager) Remove(tenant int64, path string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.removeLocked(tenant, path)
}

// Blocks returns all catalog entries of a tenant, time-ordered.
func (m *Manager) Blocks(tenant int64) []BlockInfo {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]BlockInfo, len(m.blocks[tenant]))
	copy(out, m.blocks[tenant])
	return out
}

// Prune returns the tenant's blocks overlapping [minTS, maxTS] — the
// LogBlock-map filter of the data-skipping pipeline.
func (m *Manager) Prune(tenant, minTS, maxTS int64) []BlockInfo {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var out []BlockInfo
	for _, b := range m.blocks[tenant] {
		if b.MaxTS < minTS || b.MinTS > maxTS {
			continue
		}
		out = append(out, b)
	}
	return out
}

// Tenants returns all tenants with catalog entries, ascending.
func (m *Manager) Tenants() []int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]int64, 0, len(m.blocks))
	for t := range m.blocks {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Usage reports a tenant's archived rows and bytes (billing input).
func (m *Manager) Usage(tenant int64) (rows, bytes int64) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	for _, b := range m.blocks[tenant] {
		rows += b.Rows
		bytes += b.Bytes
	}
	return
}

// SetRetention configures a tenant's data lifetime; zero or negative
// means "keep forever". Different tenants legitimately differ: some
// keep days for diagnosis, others keep years for compliance (paper §1).
func (m *Manager) SetRetention(tenant int64, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if d <= 0 {
		delete(m.retention, tenant)
		return
	}
	m.retention[tenant] = d
}

// Retention returns the tenant's configured lifetime (0 = forever).
func (m *Manager) Retention(tenant int64) time.Duration {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.retention[tenant]
}

// Expired returns blocks whose entire time range has passed out of the
// tenant's retention window at the given time. The task manager deletes
// these from object storage and then calls Remove.
func (m *Manager) Expired(nowMS int64) []BlockInfo {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var out []BlockInfo
	for tenant, d := range m.retention {
		cutoff := nowMS - d.Milliseconds()
		for _, b := range m.blocks[tenant] {
			if b.MaxTS < cutoff {
				out = append(out, b)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Tenant != out[j].Tenant {
			return out[i].Tenant < out[j].Tenant
		}
		return out[i].Path < out[j].Path
	})
	return out
}

// snapshot is the serialized catalog form.
type snapshot struct {
	Blocks      map[int64][]BlockInfo `json:"blocks"`
	RetentionMS map[int64]int64       `json:"retention_ms"`
}

// Marshal serializes the whole catalog (for checkpointing to object
// storage, so a controller restart can recover tenant metadata).
func (m *Manager) Marshal() ([]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	s := snapshot{
		Blocks:      m.blocks,
		RetentionMS: make(map[int64]int64, len(m.retention)),
	}
	for t, d := range m.retention {
		s.RetentionMS[t] = d.Milliseconds()
	}
	return json.Marshal(&s)
}

// maxRetentionMS is the longest retention, in milliseconds, a
// time.Duration can hold.
const maxRetentionMS = math.MaxInt64 / int64(time.Millisecond)

// Unmarshal replaces the catalog with a serialized snapshot. A snapshot
// Marshal did not write — an entry filed under another tenant's list,
// one path twice, a retention too long for a time.Duration — is
// rejected and leaves the catalog as it was. A retention of zero or
// less means "keep forever", as in SetRetention.
func (m *Manager) Unmarshal(data []byte) error {
	var s snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("meta: decode snapshot: %w", err)
	}
	blocks := make(map[int64][]BlockInfo, len(s.Blocks))
	byPath := make(map[string]BlockInfo)
	for tenant, list := range s.Blocks {
		if len(list) == 0 {
			continue
		}
		for _, b := range list {
			if err := b.validate(); err != nil {
				return fmt.Errorf("meta: decode snapshot: %w", err)
			}
			if b.Tenant != tenant {
				return fmt.Errorf("meta: decode snapshot: block %s of tenant %d listed under tenant %d", b.Path, b.Tenant, tenant)
			}
			if _, dup := byPath[b.Path]; dup {
				return fmt.Errorf("meta: decode snapshot: block %s listed twice", b.Path)
			}
			byPath[b.Path] = b
		}
		sort.Slice(list, func(i, j int) bool { return before(list[i], list[j]) })
		blocks[tenant] = list
	}
	retention := make(map[int64]time.Duration, len(s.RetentionMS))
	for t, ms := range s.RetentionMS {
		if ms > maxRetentionMS {
			return fmt.Errorf("meta: decode snapshot: tenant %d retention %d ms overflows a duration", t, ms)
		}
		if ms > 0 { // SetRetention's rule: zero or negative keeps forever
			retention[t] = time.Duration(ms) * time.Millisecond
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.blocks, m.byPath, m.retention = blocks, byPath, retention
	return nil
}

// BlockPath builds the canonical object key for a tenant's LogBlock:
// one OSS "directory" per tenant (paper §3.1: "Each columnar table
// corresponds to an OSS directory, which belongs to a tenant and
// contains a series of LogBlocks stored in chronological order").
func BlockPath(table string, tenant, minTS int64, seq uint64) string {
	return fmt.Sprintf("%s/tenant-%d/logblock-%016d-%06d.tar", table, tenant, minTS, seq)
}

// TenantPrefix is the object-key prefix holding all of a tenant's
// LogBlocks; deleting a tenant means deleting this prefix.
func TenantPrefix(table string, tenant int64) string {
	return fmt.Sprintf("%s/tenant-%d/", table, tenant)
}
