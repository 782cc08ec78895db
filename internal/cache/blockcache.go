package cache

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// BlockCache is the two-level file-block cache from Figure 9: a memory
// LRU in front of an optional disk ("SSD") LRU. Blocks evicted from
// memory spill to disk; disk hits are promoted back into memory.
//
// The disk level is an optimization, never a dependency: if its
// directory cannot be prepared, or its writes start failing (full or
// yanked SSD), the cache degrades to memory-only and keeps serving —
// a broken cache level must not error the query path.
type BlockCache struct {
	mem      *LRU
	disk     *diskCache
	degraded bool // disk level requested but unusable at construction
}

// BlockCacheConfig sizes the cache levels. The paper's production
// deployment uses 8 GB memory and 200 GB SSD per worker; experiments
// here scale those down.
type BlockCacheConfig struct {
	MemoryBytes int64
	DiskBytes   int64  // 0 disables the disk level
	DiskDir     string // required when DiskBytes > 0
}

// NewBlockCache builds the cache. The disk directory is created if
// missing and stale content in it is removed. A disk level that cannot
// be set up (unwritable path, missing mount) degrades the cache to
// memory-only rather than failing construction; DiskBytes without a
// DiskDir stays a configuration error.
func NewBlockCache(cfg BlockCacheConfig) (*BlockCache, error) {
	bc := &BlockCache{}
	if cfg.DiskBytes > 0 {
		if cfg.DiskDir == "" {
			return nil, fmt.Errorf("cache: DiskBytes set but DiskDir empty")
		}
		if err := resetDir(cfg.DiskDir); err != nil {
			bc.degraded = true
		} else {
			bc.disk = newDiskCache(cfg.DiskDir, cfg.DiskBytes)
		}
	}
	bc.mem = NewLRU(cfg.MemoryBytes, func(key string, value any, size int64) {
		// Memory eviction spills to the SSD level.
		if bc.disk != nil {
			bc.disk.put(key, value.([]byte))
		}
	})
	return bc, nil
}

// resetDir prepares an empty, writable cache directory, verifying
// writability with a probe file (MkdirAll succeeds on an existing but
// read-only directory).
func resetDir(dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	probe := filepath.Join(dir, ".probe")
	if err := os.WriteFile(probe, nil, 0o644); err != nil {
		return err
	}
	return os.Remove(probe)
}

// Degraded reports whether a requested disk level is out of service —
// either unusable at construction or disabled after repeated write
// failures — leaving the cache memory-only.
func (bc *BlockCache) Degraded() bool {
	if bc.degraded {
		return true
	}
	return bc.disk != nil && bc.disk.disabled()
}

// Get returns a cached block. Disk hits are promoted to memory.
func (bc *BlockCache) Get(key string) ([]byte, bool) {
	if v, ok := bc.mem.Get(key); ok {
		return v.([]byte), true
	}
	if bc.disk != nil {
		if data, ok := bc.disk.get(key); ok {
			bc.mem.Put(key, data, int64(len(data)))
			return data, true
		}
	}
	return nil, false
}

// Contains reports whether Get would find key in either level, without
// counting a hit or a miss or changing recency: the prefetcher asks it
// which blocks of a wave are still to be fetched.
func (bc *BlockCache) Contains(key string) bool {
	if bc.mem.Contains(key) {
		return true
	}
	return bc.disk != nil && bc.disk.idx.Contains(key)
}

// Put inserts a block into the memory level.
func (bc *BlockCache) Put(key string, data []byte) {
	bc.mem.Put(key, data, int64(len(data)))
}

// Stats returns hit/miss counts of the memory level and, when present,
// the disk level.
func (bc *BlockCache) Stats() (memHits, memMisses, diskHits, diskMisses int64) {
	memHits, memMisses = bc.mem.Stats()
	if bc.disk != nil {
		diskHits, diskMisses = bc.disk.idx.Stats()
	}
	return
}

// MemoryUsed returns bytes resident in the memory level.
func (bc *BlockCache) MemoryUsed() int64 { return bc.mem.Used() }

// DiskUsed returns bytes resident in the disk level.
func (bc *BlockCache) DiskUsed() int64 {
	if bc.disk == nil {
		return 0
	}
	return bc.disk.idx.Used()
}

// Purge drops both levels.
func (bc *BlockCache) Purge() {
	bc.mem.Purge()
	if bc.disk != nil {
		bc.disk.purge()
	}
}

// diskSpillFailureLimit is how many consecutive failed spill writes
// take the disk level out of service. One failure can be a transient
// blip; a run of them means the SSD is full or gone, and every further
// spill would just burn a syscall on the eviction path.
const diskSpillFailureLimit = 8

// diskCache is the SSD level: an LRU index over files in a directory.
type diskCache struct {
	dir string
	idx *LRU
	mu  sync.Mutex // serializes file writes/removes against purge

	writeFails atomic.Int64 // consecutive spill failures
	down       atomic.Bool  // level disabled after too many failures
}

func newDiskCache(dir string, capacity int64) *diskCache {
	d := &diskCache{dir: dir}
	d.idx = NewLRU(capacity, func(key string, value any, size int64) {
		// Index eviction deletes the backing file.
		_ = os.Remove(value.(string))
	})
	return d
}

func (d *diskCache) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(d.dir, hex.EncodeToString(sum[:16]))
}

func (d *diskCache) disabled() bool { return d.down.Load() }

func (d *diskCache) put(key string, data []byte) {
	if d.down.Load() {
		return
	}
	p := d.path(key)
	d.mu.Lock()
	err := os.WriteFile(p, data, 0o644)
	d.mu.Unlock()
	if err != nil {
		// A failed spill is only a lost cache opportunity — but a run
		// of them means the disk is gone; stop trying.
		if d.writeFails.Add(1) >= diskSpillFailureLimit {
			d.down.Store(true)
		}
		return
	}
	d.writeFails.Store(0)
	d.idx.Put(key, p, int64(len(data)))
}

func (d *diskCache) get(key string) ([]byte, bool) {
	v, ok := d.idx.Get(key)
	if !ok {
		return nil, false
	}
	data, err := os.ReadFile(v.(string))
	if err != nil {
		d.idx.Remove(key)
		return nil, false
	}
	return data, true
}

func (d *diskCache) purge() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.idx.Purge()
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		_ = os.Remove(filepath.Join(d.dir, e.Name()))
	}
}

// ObjectCache caches decoded structures (parsed metas, opened index
// segments) so hot-path queries skip re-parsing — the paper adds this
// level explicitly to cut allocation churn.
type ObjectCache struct {
	lru *LRU
}

// NewObjectCache returns an object cache bounded to capacity bytes of
// caller-estimated sizes.
func NewObjectCache(capacity int64) *ObjectCache {
	return &ObjectCache{lru: NewLRU(capacity, nil)}
}

// Get returns a cached object.
func (c *ObjectCache) Get(key string) (any, bool) { return c.lru.Get(key) }

// Contains reports whether key is cached, without counting a hit or a
// miss or changing recency.
func (c *ObjectCache) Contains(key string) bool { return c.lru.Contains(key) }

// Put caches an object with the caller's size estimate.
func (c *ObjectCache) Put(key string, value any, size int64) { c.lru.Put(key, value, size) }

// Stats returns hit/miss counts.
func (c *ObjectCache) Stats() (hits, misses int64) { return c.lru.Stats() }

// Used reports the bytes currently charged to the cache.
func (c *ObjectCache) Used() int64 { return c.lru.Used() }

// Purge drops everything.
func (c *ObjectCache) Purge() { c.lru.Purge() }
