package experiments

import (
	"time"

	"logstore/internal/compress"
	"logstore/internal/logblock"
	"logstore/internal/query"
	"logstore/internal/schema"
	"logstore/internal/workload"
)

// ablationRows builds a single-tenant corpus for format ablations.
func ablationRows(n int, seed int64) []schema.Row {
	g := workload.NewGenerator(workload.GeneratorConfig{
		Tenants: 1, Theta: 0, Seed: seed, StartMS: 1_000_000,
	})
	return g.Batch(n)
}

// ablationQuery is a selective paper-template probe.
const ablationQuery = "SELECT log FROM request_log WHERE tenant_id = 0 AND " +
	"ts >= 1002000 AND ts <= 1010000 AND latency >= 400 AND fail = 'true'"

// AblationBlockSize sweeps the column-block size (rows per block): the
// knob trading skipping granularity (small blocks prune more precisely)
// against per-block overhead (headers, SMA entries, worse compression).
// The probe uses a `!=` predicate, which no index serves, so the
// residual scan must rely on block-level SMA pruning — exactly the path
// the block size tunes.
func AblationBlockSize(s Scale) (*Table, error) {
	rows := ablationRows(s.Rows/2+10_000, s.Seed)
	q, err := query.Parse("SELECT log FROM request_log WHERE tenant_id = 0 AND " +
		"ts >= 1002000 AND ts <= 1020000 AND latency != 250")
	if err != nil {
		return nil, err
	}
	t := &Table{
		Name: "ablation-block-size",
		Comment: "Column-block size (rows) vs packed LogBlock bytes, match latency,\n" +
			"and column blocks scanned for a selective paper-template query.",
		Header: []string{"block_rows", "packed_bytes", "match_us", "col_blocks_scanned", "col_blocks_skipped"},
	}
	for _, blockRows := range []int{512, 1024, 4096, 16384, 65536} {
		built, err := logblock.Build(schema.RequestLogSchema(), rows,
			logblock.BuildOptions{BlockRows: blockRows})
		if err != nil {
			return nil, err
		}
		packed, err := built.Pack()
		if err != nil {
			return nil, err
		}
		r, err := logblock.OpenReader(logblock.BytesFetcher(packed))
		if err != nil {
			return nil, err
		}
		var stats query.ExecStats
		start := time.Now()
		const iters = 20
		for i := 0; i < iters; i++ {
			stats = query.ExecStats{}
			if _, err := query.MatchBlock(r, q, query.ExecOptions{DataSkipping: true}, &stats); err != nil {
				return nil, err
			}
		}
		perMatch := float64(time.Since(start).Microseconds()) / iters
		t.Rows = append(t.Rows, []float64{
			float64(blockRows), float64(len(packed)), perMatch,
			float64(stats.ColumnBlocksScanned), float64(stats.ColumnBlocksSkipped),
		})
	}
	return t, nil
}

// AblationCodec sweeps the block compression codec: the paper defaults
// to the ratio-class codec (ZSTD) because network bytes dominate on the
// object-storage path; this quantifies the size/CPU trade.
func AblationCodec(s Scale) (*Table, error) {
	rows := ablationRows(s.Rows/2+10_000, s.Seed)
	q, err := query.Parse(ablationQuery)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Name: "ablation-codec",
		Comment: "Compression codec vs packed LogBlock bytes, build time, and\n" +
			"full-scan query latency (decompression cost).",
		Header: []string{"codec", "packed_bytes", "build_ms", "scan_us"},
	}
	for i, codec := range []compress.Codec{compress.None, compress.LZ4, compress.Zstd} {
		start := time.Now()
		built, err := logblock.Build(schema.RequestLogSchema(), rows,
			logblock.BuildOptions{Codec: codec})
		if err != nil {
			return nil, err
		}
		packed, err := built.Pack()
		if err != nil {
			return nil, err
		}
		buildMS := float64(time.Since(start).Microseconds()) / 1000
		r, err := logblock.OpenReader(logblock.BytesFetcher(packed))
		if err != nil {
			return nil, err
		}
		start = time.Now()
		const iters = 10
		for j := 0; j < iters; j++ {
			var stats query.ExecStats
			// Skipping off: force decompress-and-scan of every block,
			// isolating codec read cost.
			if _, err := query.MatchBlock(r, q, query.ExecOptions{DataSkipping: false}, &stats); err != nil {
				return nil, err
			}
		}
		scanUS := float64(time.Since(start).Microseconds()) / iters
		t.Rows = append(t.Rows, []float64{float64(i), float64(len(packed)), buildMS, scanUS})
	}
	return t, nil
}

// AblationIndexes toggles per-column index construction: the paper's
// "full-column indexed" design costs build time and space; this shows
// what queries pay without it.
func AblationIndexes(s Scale) (*Table, error) {
	rows := ablationRows(s.Rows/2+10_000, s.Seed)
	q, err := query.Parse(ablationQuery)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Name: "ablation-indexes",
		Comment: "Full-column indexing on/off: packed bytes (index space cost),\n" +
			"build time, and selective-query match latency.",
		Header: []string{"indexed", "packed_bytes", "build_ms", "match_us"},
	}
	for i, noIdx := range []bool{false, true} {
		start := time.Now()
		built, err := logblock.Build(schema.RequestLogSchema(), rows,
			logblock.BuildOptions{NoIndexes: noIdx})
		if err != nil {
			return nil, err
		}
		packed, err := built.Pack()
		if err != nil {
			return nil, err
		}
		buildMS := float64(time.Since(start).Microseconds()) / 1000
		r, err := logblock.OpenReader(logblock.BytesFetcher(packed))
		if err != nil {
			return nil, err
		}
		start = time.Now()
		const iters = 20
		for j := 0; j < iters; j++ {
			var stats query.ExecStats
			if _, err := query.MatchBlock(r, q, query.ExecOptions{DataSkipping: true}, &stats); err != nil {
				return nil, err
			}
		}
		matchUS := float64(time.Since(start).Microseconds()) / iters
		indexed := 1.0
		if noIdx {
			indexed = 0
		}
		_ = i
		t.Rows = append(t.Rows, []float64{indexed, float64(len(packed)), buildMS, matchUS})
	}
	return t, nil
}
