package worker

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"logstore/internal/builder"
	"logstore/internal/flow"
	"logstore/internal/logblock"
	"logstore/internal/meta"
	"logstore/internal/oss"
	"logstore/internal/query"
	"logstore/internal/schema"
	"logstore/internal/workload"
)

// waveStore is an object store whose reads can be held at a gate: while
// it is closed every Head and ranged get announces itself and waits, so
// a test can see which requests the reader issues together (one wave:
// none of them needed another's answer) and let them through at once.
type waveStore struct {
	oss.Store
	stats oss.Stats

	mu      sync.Mutex
	gate    chan struct{} // nil: open
	arrived chan struct{}
	offsets []int64 // where every ranged get since the last reset began
}

func newWaveStore() *waveStore {
	return &waveStore{Store: oss.NewMemStore(), arrived: make(chan struct{})}
}

func (s *waveStore) closeGate() {
	s.mu.Lock()
	s.gate = make(chan struct{})
	s.mu.Unlock()
}

func (s *waveStore) wait() {
	s.mu.Lock()
	gate := s.gate
	s.mu.Unlock()
	if gate != nil {
		s.arrived <- struct{}{}
		<-gate
	}
}

// wave waits until exactly n requests are held at the gate and releases
// them together. The query finishing first, or the n-th request never
// coming (it depends on an answer still held back), fails the test.
func (s *waveStore) wave(t *testing.T, name string, n int, done <-chan error) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-s.arrived:
		case err := <-done:
			t.Fatalf("%s wave: query returned (%v) after %d of %d requests", name, err, i, n)
		case <-time.After(30 * time.Second):
			t.Fatalf("%s wave: %d of %d requests arrived; the rest wait on these", name, i, n)
		}
	}
	s.mu.Lock()
	held := s.gate
	s.gate = make(chan struct{})
	s.mu.Unlock()
	close(held)
}

func (s *waveStore) Head(key string) (oss.ObjectInfo, error) {
	return s.HeadContext(context.Background(), key)
}

func (s *waveStore) GetRange(key string, off, size int64) ([]byte, error) {
	return s.GetRangeContext(context.Background(), key, off, size)
}

func (s *waveStore) GetContext(ctx context.Context, key string) ([]byte, error) {
	return s.Store.Get(key)
}

func (s *waveStore) HeadContext(ctx context.Context, key string) (oss.ObjectInfo, error) {
	s.stats.Heads.Inc()
	s.wait()
	return s.Store.Head(key)
}

func (s *waveStore) GetRangeContext(ctx context.Context, key string, off, size int64) ([]byte, error) {
	s.stats.RangeGets.Inc()
	s.mu.Lock()
	s.offsets = append(s.offsets, off)
	s.mu.Unlock()
	s.wait()
	return s.Store.GetRange(key, off, size)
}

const waveBlockSize = 16 << 10

// archiveTenant ingests n rows of one tenant through w and archives
// them, returning the catalog entries in time order.
func archiveTenant(t *testing.T, w *Worker, catalog *meta.Manager, n int, seed int64) []meta.BlockInfo {
	t.Helper()
	if err := w.AddShard(0); err != nil {
		t.Fatal(err)
	}
	g := workload.NewGenerator(workload.GeneratorConfig{Tenants: 1, Theta: 0, Seed: seed, StartMS: 1_000_000})
	if err := w.Append(0, g.Batch(n)); err != nil {
		t.Fatal(err)
	}
	if err := w.FlushShard(0); err != nil {
		t.Fatal(err)
	}
	blocks := catalog.Blocks(0)
	if len(blocks) == 0 {
		t.Fatal("nothing archived")
	}
	return blocks
}

// cacheBlocks returns the distinct cache blocks under the given parts.
func cacheBlocks(t *testing.T, exts []logblock.Extent) []int64 {
	t.Helper()
	var out []int64
	for _, ext := range exts {
		if ext == (logblock.Extent{}) {
			t.Fatal("a part the object does not have")
		}
		for bi := ext.Offset / waveBlockSize; bi <= (ext.Offset+ext.Size-1)/waveBlockSize; bi++ {
			out = append(out, bi)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// minus returns the blocks of want not in have.
func minus(want []int64, have ...[]int64) []int64 {
	var out []int64
	for _, bi := range want {
		if !slices.ContainsFunc(have, func(h []int64) bool { return slices.Contains(h, bi) }) {
			out = append(out, bi)
		}
	}
	return out
}

// TestColdQueryRoundTripDepth: a cold query over a registered LogBlock
// that spans many cache blocks never asks the store for the object's
// size and needs three dependent round trips — open (the tail cache
// blocks, which hold the trailer, the manifest and the meta), indexes,
// data — each wave carrying every block its level needs. A path missing
// from the catalog is still answered, through the one-Head fallback.
func TestColdQueryRoundTripDepth(t *testing.T) {
	store := newWaveStore()
	catalog := meta.NewManager()
	w, err := New(Config{
		ID: 7, ArchiveInterval: time.Hour,
		BlockSize:       waveBlockSize,
		PrefetchThreads: 64, // a wave wider than the pool would take two trips
		Builder:         builder.Config{Table: "request_log"},
	}, schema.RequestLogSchema(), store, catalog)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	// The ts index stores no row ids, so it takes 16000 rows for it to
	// span a cache block its neighbours do not share.
	blocks := archiveTenant(t, w, catalog, 16000, 31)
	if len(blocks) != 1 {
		t.Fatalf("fixture: %d LogBlocks, want 1", len(blocks))
	}
	path := blocks[0].Path
	opts := query.ExecOptions{DataSkipping: true}

	// What each level has to read, from the object itself.
	raw, err := store.Store.Get(path)
	if err != nil {
		t.Fatal(err)
	}
	r, err := logblock.OpenReader(logblock.BytesFetcher(raw))
	if err != nil {
		t.Fatal(err)
	}
	tail := logblock.Extent{Offset: max(0, int64(len(raw))-logblock.TailSize), Size: min(int64(len(raw)), logblock.TailSize)}
	if r.Manifest.Meta.Offset < tail.Offset {
		t.Fatalf("fixture: the meta starts at %d, before the tail read at %d", r.Manifest.Meta.Offset, tail.Offset)
	}
	open := cacheBlocks(t, []logblock.Extent{tail})
	tsIndex := minus(cacheBlocks(t, []logblock.Extent{r.Manifest.IndexExtent(r.Meta.Schema.ColumnIndex("ts"))}), open)
	logCol := r.Meta.Schema.ColumnIndex("log")

	// Two shapes. A window inside the LogBlock probes three indexes, one
	// of them ts: enough members to tell a wave from a chain. The full
	// history implies the window, so the index wave is the latency index
	// alone and no byte of the ts index is read — still three levels.
	var want *query.Result
	var q *query.Query
	for _, tc := range []struct {
		name, where   string
		minIdxMembers int
		readsTS       bool
	}{
		{"window", fmt.Sprintf("ts >= %d AND ts <= %d AND latency >= 100 AND log MATCH 'tenant'",
			blocks[0].MinTS+1, blocks[0].MaxTS), 3, true},
		{"full history", fmt.Sprintf("ts >= %d AND ts <= %d AND latency >= 100",
			blocks[0].MinTS, blocks[0].MaxTS), 1, false},
	} {
		q, err = query.Parse("SELECT log FROM request_log WHERE tenant_id = 0 AND " + tc.where)
		if err != nil {
			t.Fatal(err)
		}
		var idxMembers, dataMembers []logblock.Extent
		plan, err := query.PlanBlock(r.Meta, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, ci := range plan.IndexColumns(nil) {
			idxMembers = append(idxMembers, r.Manifest.IndexExtent(ci))
		}
		plan.Release()
		var stats query.ExecStats
		matched, err := query.MatchBlock(r, q, opts, &stats)
		if err != nil {
			t.Fatal(err)
		}
		for bi := 0; bi < r.Meta.NumBlocks; bi++ {
			if start, end := r.Meta.BlockRowRange(bi); matched.AnyInRange(start, end) {
				dataMembers = append(dataMembers, r.Manifest.DataExtent(logCol, bi))
			}
		}
		indexes := minus(cacheBlocks(t, idxMembers), open)
		data := minus(cacheBlocks(t, dataMembers), open, indexes)
		if len(idxMembers) < tc.minIdxMembers || len(indexes) < 2 || len(data) < 2 {
			t.Fatalf("%s: fixture too small to tell a wave from a chain: %d index members on %d blocks, %d data blocks",
				tc.name, len(idxMembers), len(indexes), len(data))
		}
		// Parts lie back to back, so the ts index shares its edge blocks
		// with its neighbours; the blocks it has to itself must go unread.
		tsOnly := minus(tsIndex, indexes, data)
		if !tc.readsTS && len(tsOnly) == 0 {
			t.Fatalf("%s: fixture: every ts index block %v holds what the query must read (%v, %v)", tc.name, tsIndex, indexes, data)
		}

		t.Logf("%s: %d-byte LogBlock: open %v, %d index members on blocks %v, data blocks %v",
			tc.name, len(raw), open, len(idxMembers), indexes, data)

		store.mu.Lock()
		store.gate = nil
		store.mu.Unlock()
		w.PurgeCaches()
		want, err = w.QueryBlocksCtx(context.Background(), []string{path}, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Rows) == 0 || len(want.Rows) != matched.Count() {
			t.Fatalf("%s: ungated query returned %d rows, matcher says %d", tc.name, len(want.Rows), matched.Count())
		}

		w.PurgeCaches()
		store.stats = oss.Stats{}
		store.mu.Lock()
		store.offsets = nil
		store.mu.Unlock()
		store.closeGate()
		done := make(chan error, 1)
		var got *query.Result
		go func() {
			var err error
			got, err = w.QueryBlocksCtx(context.Background(), []string{path}, q, opts)
			done <- err
		}()
		store.wave(t, "open", len(open), done)
		store.wave(t, "index", len(indexes), done)
		store.wave(t, "data", len(data), done)
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-store.arrived:
			t.Fatalf("%s: a fourth dependent round trip", tc.name)
		}
		if h, g := store.stats.Heads.Value(), store.stats.RangeGets.Value(); h != 0 || g != int64(len(open)+len(indexes)+len(data)) {
			t.Errorf("%s: cold query: %d heads, %d range gets; want 0 and %d", tc.name, h, g, len(open)+len(indexes)+len(data))
		}
		if len(got.Rows) != len(want.Rows) || got.Stats != want.Stats {
			t.Errorf("%s: gated cold query: %d rows, stats %+v; want %d, %+v", tc.name, len(got.Rows), got.Stats, len(want.Rows), want.Stats)
		}
		for _, off := range store.offsets {
			if !tc.readsTS && slices.Contains(tsOnly, off/waveBlockSize) {
				t.Errorf("%s: read at %d lies under the ts index, which the SMA made unnecessary", tc.name, off)
			}
		}
		if implied := got.Stats.PredsImpliedBySMA; (implied == 3) == tc.readsTS {
			t.Errorf("%s: %d comparisons implied by the SMA", tc.name, implied)
		}
	}

	// Not in the catalog: the size comes from one Head, then as before.
	catalog.Remove(0, path)
	w.PurgeCaches()
	store.stats = oss.Stats{}
	store.mu.Lock()
	store.gate = nil
	store.mu.Unlock()
	res, err := w.QueryBlocksCtx(context.Background(), []string{path}, q, opts)
	if err != nil {
		t.Fatalf("unregistered path: %v", err)
	}
	if h := store.stats.Heads.Value(); h != 1 || len(res.Rows) != len(want.Rows) {
		t.Errorf("unregistered path: %d heads, %d rows; want 1 head, %d rows", h, len(res.Rows), len(want.Rows))
	}
}

// TestLimitShrinksDataWave: LIMIT n without ORDER BY stops work, not
// just output. Over a LogBlock of several column blocks the capped query
// returns the first n rows of the uncapped one and fetches strictly
// fewer data blocks for them.
func TestLimitShrinksDataWave(t *testing.T) {
	store := newWaveStore()
	catalog := meta.NewManager()
	w, err := New(Config{
		ID: 7, ArchiveInterval: time.Hour,
		BlockSize: waveBlockSize,
		Builder:   builder.Config{Table: "request_log", BlockRows: 256},
	}, schema.RequestLogSchema(), store, catalog)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	blocks := archiveTenant(t, w, catalog, 6000, 33)
	if len(blocks) != 1 {
		t.Fatalf("fixture: %d LogBlocks, want 1", len(blocks))
	}
	opts := query.ExecOptions{DataSkipping: true}
	cold := func(sql string) (*query.Result, int64) {
		t.Helper()
		q, err := query.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		w.PurgeCaches()
		store.stats = oss.Stats{}
		res, err := w.QueryBlocksCtx(context.Background(), []string{blocks[0].Path}, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Finalize(q); err != nil {
			t.Fatal(err)
		}
		return res, store.stats.RangeGets.Value()
	}
	const where = "SELECT log FROM request_log WHERE tenant_id = 0 AND latency >= 100"
	all, allGets := cold(where)
	top, topGets := cold(where + " LIMIT 10")
	if len(all.Rows) < 100 || len(top.Rows) != 10 {
		t.Fatalf("fixture: %d rows uncapped, %d capped", len(all.Rows), len(top.Rows))
	}
	for i, row := range top.Rows {
		if !row[0].Equal(all.Rows[i][0]) {
			t.Fatalf("row %d under LIMIT is %v, want %v", i, row, all.Rows[i])
		}
	}
	if topGets >= allGets {
		t.Errorf("LIMIT 10 read %d cache blocks, the uncapped query %d: the data wave did not shrink", topGets, allGets)
	}
	if top.Stats != all.Stats {
		t.Errorf("LIMIT changed what matching did: %+v, uncapped %+v", top.Stats, all.Stats)
	}
	// ORDER BY needs every row before it can pick ten.
	if _, sortedGets := cold(where + " ORDER BY log LIMIT 10"); sortedGets != allGets {
		t.Errorf("ORDER BY ... LIMIT read %d cache blocks, want all %d", sortedGets, allGets)
	}
}

func rowStrings(rows []schema.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	sort.Strings(out)
	return out
}

// TestPrefetchedEqualsSerial: for every query shape of the workload,
// over several LogBlocks, cold and warm, the wave-prefetching worker
// returns the rows and the ExecStats of the serial (no pool) one.
func TestPrefetchedEqualsSerial(t *testing.T) {
	store := oss.NewMemStore()
	catalog := meta.NewManager()
	newW := func(id int, serial bool) *Worker {
		threads := 0
		if serial {
			threads = -1
		}
		w, err := New(Config{
			ID: flow.WorkerID(id), ArchiveInterval: time.Hour,
			BlockSize:       waveBlockSize,
			PrefetchThreads: threads,
			Builder:         builder.Config{Table: "request_log", MaxRowsPerBlock: 2500},
		}, schema.RequestLogSchema(), store, catalog)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Close)
		return w
	}
	pooled, serial := newW(8, false), newW(9, true)
	blocks := archiveTenant(t, pooled, catalog, 6000, 32)
	if len(blocks) < 3 {
		t.Fatalf("fixture: %d LogBlocks, want several", len(blocks))
	}
	specs := workload.GenerateQueries(workload.QuerySetConfig{
		Tenants: 1, PerTenant: 12, Seed: 5,
		HistoryStartMS: blocks[0].MinTS, HistoryEndMS: blocks[len(blocks)-1].MaxTS,
	})
	opts := query.ExecOptions{DataSkipping: true}
	for _, spec := range specs {
		q, err := query.Parse(spec.SQL)
		if err != nil {
			t.Fatal(err)
		}
		var paths []string
		for _, b := range catalog.Prune(spec.Tenant, spec.StartMS, spec.EndMS) {
			paths = append(paths, b.Path)
		}
		for _, temp := range []string{"cold", "warm"} {
			if temp == "cold" {
				pooled.PurgeCaches()
				serial.PurgeCaches()
			}
			got, err := pooled.QueryBlocksCtx(context.Background(), paths, q, opts)
			if err != nil {
				t.Fatalf("%s (%s, pooled): %v", spec.SQL, temp, err)
			}
			want, err := serial.QueryBlocksCtx(context.Background(), paths, q, opts)
			if err != nil {
				t.Fatalf("%s (%s, serial): %v", spec.SQL, temp, err)
			}
			if got.Stats != want.Stats || !slices.Equal(rowStrings(got.Rows), rowStrings(want.Rows)) {
				t.Errorf("%s (%s): pooled %d rows %+v, serial %d rows %+v",
					spec.SQL, temp, len(got.Rows), got.Stats, len(want.Rows), want.Stats)
			}
		}
	}
}

// TestDataWaveSkipsCachedVectors: once a query has run, its data wave
// names no member whose decoded vector the cache holds; a vector evicted
// after that check is read on demand, giving the same rows.
func TestDataWaveSkipsCachedVectors(t *testing.T) {
	catalog := meta.NewManager()
	w, err := New(Config{
		ID: 7, ArchiveInterval: time.Hour,
		BlockSize: waveBlockSize,
		Builder:   builder.Config{Table: "request_log", BlockRows: 256},
	}, schema.RequestLogSchema(), oss.NewMemStore(), catalog)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	path := archiveTenant(t, w, catalog, 3000, 34)[0].Path
	q, err := query.Parse("SELECT log, latency FROM request_log WHERE tenant_id = 0 AND latency >= 100")
	if err != nil {
		t.Fatal(err)
	}
	opts := query.ExecOptions{DataSkipping: true}
	ctx := context.Background()
	want, err := w.QueryBlocksCtx(ctx, []string{path}, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	r, err := w.openReaderCtx(ctx, path)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := query.PlanBlock(r.Meta, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer plan.Release()
	var stats query.ExecStats
	matched, err := plan.Match(r, &stats)
	if err != nil {
		t.Fatal(err)
	}
	cols := query.EffectiveColumns(q, r.Meta.Schema)
	if names := dataMembers(r, matched, cols); len(names) != 0 {
		t.Fatalf("warm data wave names %v", names)
	}
	w.objectCache.Purge() // the vectors go between the check and the read
	if names := dataMembers(r, matched, cols); len(names) < 2 {
		t.Fatalf("fixture: the data wave names %v once the vectors are gone", names)
	}
	rows, err := query.Materialize(r, matched, cols)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 || !slices.Equal(rowStrings(rows), rowStrings(want.Rows)) {
		t.Fatalf("after eviction: %d rows, want the %d the query returned", len(rows), len(want.Rows))
	}
}
