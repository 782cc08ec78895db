package builder

import (
	"errors"
	"fmt"
	"strings"

	"logstore/internal/logblock"
	"logstore/internal/meta"
	"logstore/internal/oss"
	"logstore/internal/schema"
	"logstore/internal/tarblock"
)

// DefaultCompactTargetRows bounds a merged LogBlock's rows when the
// caller passes 0.
const DefaultCompactTargetRows = 1_000_000

// CompactTenant merges the tenant's small adjacent LogBlocks into
// larger ones, bounding each merged block at targetRows rows
// (0 = DefaultCompactTargetRows). It returns the number of source
// blocks merged away. High-frequency archiving litters object storage
// with tiny objects; this is the background housekeeping task (same
// class as expiration and checkpointing) that repairs it.
//
// The commit is atomic and crash-safe: merged blocks are uploaded
// first (invisible) and handed to their read home, then the catalog
// entries are swapped in one operation (publish with meta.Replace), then
// the source objects are deleted best-effort. A crash before the swap
// leaves only invisible merged objects (orphans for SweepOrphans); a
// crash after it leaves only unreferenced source objects — in neither
// case does a query see double or missing rows.
func (b *Builder) CompactTenant(tenant int64, targetRows int) (int, error) {
	if targetRows <= 0 {
		targetRows = DefaultCompactTargetRows
	}
	blocks := b.catalog.Blocks(tenant)
	merged := 0
	for _, group := range planGroups(blocks, targetRows) {
		if err := b.mergeGroup(tenant, group); err != nil {
			return merged, fmt.Errorf("builder: compact tenant %d: %w", tenant, err)
		}
		merged += len(group)
	}
	return merged, nil
}

// RewriteLegacy packs again, in the current layout, each of the
// tenant's LogBlocks that an older release wrote: those OpenReader
// refuses with logblock.ErrLegacyLayout, which it finds from each
// object's tail. Each is rewritten alone, from its rows, and committed
// as a compaction commits a merged block. It returns the number of
// blocks rewritten.
func (b *Builder) RewriteLegacy(tenant int64) (int, error) {
	rewritten := 0
	for _, blk := range b.catalog.Blocks(tenant) {
		_, err := logblock.OpenReader(oss.ObjectFetcher{Store: b.store, Key: blk.Path})
		if err == nil {
			continue
		}
		if !errors.Is(err, logblock.ErrLegacyLayout) {
			return rewritten, fmt.Errorf("builder: rewrite: open %s: %w", blk.Path, err)
		}
		if err := b.mergeGroup(tenant, []meta.BlockInfo{blk}); err != nil {
			return rewritten, fmt.Errorf("builder: rewrite %s: %w", blk.Path, err)
		}
		rewritten++
	}
	return rewritten, nil
}

// planGroups partitions the tenant's time-ordered blocks into adjacent
// runs whose row sums stay within targetRows; only runs of two or more
// blocks are worth rewriting.
func planGroups(blocks []meta.BlockInfo, targetRows int) [][]meta.BlockInfo {
	var groups [][]meta.BlockInfo
	var cur []meta.BlockInfo
	var curRows int64
	flush := func() {
		if len(cur) >= 2 {
			groups = append(groups, cur)
		}
		cur = nil
		curRows = 0
	}
	for _, blk := range blocks {
		if len(cur) > 0 && curRows+blk.Rows > int64(targetRows) {
			flush()
		}
		if blk.Rows >= int64(targetRows) {
			// Already at target size: never a merge candidate.
			flush()
			continue
		}
		cur = append(cur, blk)
		curRows += blk.Rows
	}
	flush()
	return groups
}

// mergeGroup rewrites one run of adjacent blocks as a single LogBlock.
func (b *Builder) mergeGroup(tenant int64, group []meta.BlockInfo) error {
	var rows []schema.Row
	for _, blk := range group {
		blockRows, err := b.readBlockRows(blk.Path)
		if err != nil {
			return fmt.Errorf("read %s: %w", blk.Path, err)
		}
		rows = append(rows, blockRows...)
	}

	packed, info, err := b.packBlock(tenant, rows)
	if err != nil {
		return err
	}
	// Atomic commit: sources out, merged block in, one catalog swap. The
	// merged block's rows are in no row store, so it carries no
	// BornSegment.
	removePaths := make([]string, len(group))
	for i, blk := range group {
		removePaths[i] = blk.Path
		info.CreatedMS = max(info.CreatedMS, blk.CreatedMS)
	}
	err = b.publish(info.Path, packed, func() error {
		return b.catalog.Replace(tenant, removePaths, []meta.BlockInfo{info})
	})
	if err != nil {
		return err
	}

	// The source objects are now unreferenced; delete best-effort. A
	// failure leaves an invisible orphan for SweepOrphans.
	for _, path := range removePaths {
		if path == info.Path {
			continue // content-identical rewrite; never delete the live key
		}
		_ = b.store.Delete(path)
	}
	return nil
}

// readBlockRows materializes every row of one archived LogBlock, of
// the current layout or of an older release's.
func (b *Builder) readBlockRows(path string) ([]schema.Row, error) {
	data, err := b.store.Get(path)
	if err != nil {
		return nil, err
	}
	r, err := logblock.OpenReader(logblock.BytesFetcher(data))
	if errors.Is(err, logblock.ErrLegacyLayout) {
		r, err = tarblock.Open(data)
	}
	if err != nil {
		return nil, err
	}
	return r.AllRows()
}

// SweepOrphans deletes objects under the builder's table directory that
// are neither registered in the catalog nor part of an in-flight
// commit — the invisible leftovers of crashes between upload and
// registration. Returns the number of objects deleted. Callers should
// serialize it with drains of the same builder (the worker's archive
// mutex does).
func (b *Builder) SweepOrphans() (int, error) {
	infos, err := b.store.List(b.cfg.Table + "/")
	if err != nil {
		return 0, fmt.Errorf("builder: sweep list: %w", err)
	}
	// Pending before registered: a commit registers its key before it
	// stops being pending, so a key uploaded before the listing is in
	// one of the two snapshots. Taken the other way round, a commit that
	// finished between them would be in neither.
	b.mu.Lock()
	pending := make(map[string]bool, len(b.pending))
	for k := range b.pending {
		pending[k] = true
	}
	b.mu.Unlock()
	registered := make(map[string]bool)
	for _, tenant := range b.catalog.Tenants() {
		for _, blk := range b.catalog.Blocks(tenant) {
			registered[blk.Path] = true
		}
	}

	deleted := 0
	for _, info := range infos {
		if registered[info.Key] || pending[info.Key] {
			continue
		}
		if !strings.HasSuffix(info.Key, ".tar") {
			continue // never touch non-LogBlock objects
		}
		if err := b.store.Delete(info.Key); err != nil {
			return deleted, fmt.Errorf("builder: sweep delete %s: %w", info.Key, err)
		}
		deleted++
	}
	return deleted, nil
}
