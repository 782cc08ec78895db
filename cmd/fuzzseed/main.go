// Command fuzzseed regenerates the checked-in seed corpora under each
// fuzzed package's testdata/fuzz/<FuzzTarget>/ directory. The seeds are
// real encoder outputs (plus a few deliberately damaged variants), so
// `go test` exercises the full decode surface even without -fuzz, and
// fuzzing starts from format-valid inputs instead of rediscovering the
// framing byte by byte.
//
// Run it from the module root after changing an on-disk format:
//
//	go run ./cmd/fuzzseed
package main

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/crc32"
	"log"
	"os"
	"path"
	"path/filepath"
	"slices"
	"time"

	"logstore/internal/index/bkd"
	"logstore/internal/index/inverted"
	"logstore/internal/index/sma"
	"logstore/internal/logblock"
	"logstore/internal/meta"
	"logstore/internal/oss"
	"logstore/internal/raft"
	"logstore/internal/rowstore"
	"logstore/internal/schema"
	"logstore/internal/ship"
	"logstore/internal/wal"
	"logstore/internal/worker"
)

func main() {
	root := flag.String("root", ".", "module root to write testdata under")
	flag.Parse()
	if err := run(*root); err != nil {
		log.Fatal(err)
	}
}

// writeSeed writes one corpus entry in `go test fuzz v1` encoding.
func writeSeed(dir, name string, args ...any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	body := "go test fuzz v1\n"
	for _, a := range args {
		switch v := a.(type) {
		case []byte:
			body += fmt.Sprintf("[]byte(%q)\n", v)
		case string:
			body += fmt.Sprintf("string(%q)\n", v)
		case int:
			body += fmt.Sprintf("int(%d)\n", v)
		case int64:
			body += fmt.Sprintf("int64(%d)\n", v)
		default:
			return fmt.Errorf("unsupported corpus arg type %T", a)
		}
	}
	return os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644)
}

func seedRows(n int) []schema.Row {
	rows := make([]schema.Row, n)
	for i := range rows {
		rows[i] = schema.Row{
			schema.IntValue(1),
			schema.IntValue(int64(1000 + i)),
			schema.StringValue(fmt.Sprintf("192.168.0.%d", 1+i%20)),
			schema.StringValue(fmt.Sprintf("/api/v%d/query", i%3)),
			schema.IntValue(int64(1 + i%500)),
			schema.StringValue("false"),
			schema.StringValue(fmt.Sprintf("request served code=200 attempt=%d", i)),
		}
	}
	return rows
}

// packBlock builds rows into a LogBlock and packs it.
func packBlock(rows []schema.Row, opts logblock.BuildOptions) ([]byte, error) {
	built, err := logblock.Build(schema.RequestLogSchema(), rows, opts)
	if err != nil {
		return nil, err
	}
	return built.Pack()
}

// raiseBlockCount returns a copy of obj, a packed LogBlock of one
// column block, whose meta states two blocks while it still elides the
// block headers: the meta re-encoded as one of two blocks, and its first
// byte that differs put in place of the one-block meta's.
func raiseBlockCount(obj []byte) ([]byte, error) {
	r, err := logblock.OpenReader(logblock.BytesFetcher(obj))
	if err != nil {
		return nil, err
	}
	one := r.Meta.Encode()
	if r.Meta.NumBlocks != 1 || !bytes.Contains(obj, one) {
		return nil, fmt.Errorf("a meta of %d blocks that the object does not hold as it encodes", r.Meta.NumBlocks)
	}
	m := *r.Meta
	m.NumBlocks = 2
	two := m.Encode()
	at := 0
	for one[at] == two[at] {
		at++
	}
	raised := slices.Clone(one)
	raised[at] = two[at]
	return bytes.Replace(obj, one, raised, 1), nil
}

// shippedObjects runs a shipper for one shard over a snapshot of two
// entries, offers it three more, and returns what it wrote to the store,
// keyed by object name within the generation.
func shippedObjects() (map[string][]byte, error) {
	entries := func(first, last uint64) []raft.Entry {
		var out []raft.Entry
		for i := first; i <= last; i++ {
			out = append(out, raft.Entry{Term: 2, Index: i, Data: rowstore.EncodeBatch(nil, seedRows(1+int(i)%2))})
		}
		return out
	}
	store := oss.WithDefaultRetry(oss.NewMemStore())
	source := func() (ship.State, error) {
		return ship.State{Term: 2, Applied: 2, AppliedTerm: 2, DedupIDs: []uint64{7, 9}, Entries: entries(3, 4)}, nil
	}
	sh := ship.New(ship.Options{Store: store, Registry: ship.NewRegistry(store)}, 1, 5, source)
	sh.Offer(entries(5, 7))
	err := sh.Barrier()
	sh.Stop(false)
	if err != nil {
		return nil, err
	}
	infos, err := store.List("wal/1/")
	if err != nil {
		return nil, err
	}
	objs := map[string][]byte{}
	for _, info := range infos {
		data, err := store.Get(info.Key)
		if err != nil {
			return nil, err
		}
		objs[path.Base(info.Key)] = data
	}
	return objs, nil
}

// walRecords runs write against an empty WAL directory and returns the
// records it left in the log, each framed with a uvarint length.
func walRecords(write func(dir string) error) ([]byte, error) {
	dir, err := os.MkdirTemp("", "fuzzseed-wal")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if err := write(dir); err != nil {
		return nil, err
	}
	l, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return nil, err
	}
	defer l.Close()
	var out []byte
	err = l.Replay(func(_ uint64, payload []byte) error {
		out = binary.AppendUvarint(out, uint64(len(payload)))
		out = append(out, payload...)
		return nil
	})
	return out, err
}

func run(root string) error {
	// internal/compress: FuzzLZRoundTrip fuzzes the *uncompressed* side,
	// so seeds are plain byte patterns with repetition for the matcher.
	lzDir := filepath.Join(root, "internal/compress/testdata/fuzz/FuzzLZRoundTrip")
	if err := writeSeed(lzDir, "seed-repetitive", []byte("abcabcabcabc the same message again and again and again")); err != nil {
		return err
	}
	if err := writeSeed(lzDir, "seed-binary", []byte{0, 1, 2, 3, 0, 1, 2, 3, 0xff, 0xfe, 0, 0, 0, 0, 0, 0, 0, 0}); err != nil {
		return err
	}

	// internal/index/sma: valid int and string aggregates plus a
	// truncated one.
	si := sma.New(schema.Int64)
	si.AddInt(-40)
	si.AddInt(99)
	ss := sma.New(schema.String)
	ss.AddString("alpha")
	ss.AddString("omega")
	smaDir := filepath.Join(root, "internal/index/sma/testdata/fuzz/FuzzSMADecode")
	if err := writeSeed(smaDir, "seed-int", si.AppendTo(nil)); err != nil {
		return err
	}
	if err := writeSeed(smaDir, "seed-string", ss.AppendTo(nil)); err != nil {
		return err
	}
	if enc := ss.AppendTo(nil); len(enc) > 2 {
		if err := writeSeed(smaDir, "seed-truncated", enc[:len(enc)-2]); err != nil {
			return err
		}
	}
	// String bounds as a LogBlock meta stores them: cut to
	// sma.BoundLen bytes, the max incremented past a 0xFF byte.
	cut := sma.New(schema.String)
	cut.AddString("request served code=200 attempt=1")
	cut.AddString("request served \xff\xffattempt=9")
	cut.Truncate()
	if err := writeSeed(smaDir, "seed-string-truncated-bounds", cut.AppendTo(nil)); err != nil {
		return err
	}

	// internal/index/bkd: multi-leaf trees and truncated copies, each
	// with range bounds that cut through the leaves — one that stores its
	// row ids, and an identity tree (a sorted column) that stores none.
	// seed-tree and seed-truncated in this directory are the encoding
	// before the row-id flag, which no code writes or reads any more;
	// they are kept as checked in, as input Open must refuse or survive.
	bkdDir := filepath.Join(root, "internal/index/bkd/testdata/fuzz/FuzzBKDOpen")
	rowsTree := bkd.NewBuilder(8)
	identityTree := bkd.NewBuilder(8)
	for i := 0; i < 64; i++ {
		rowsTree.Add(uint32(i), int64(i%13)-6)
		identityTree.Add(uint32(i), int64(i/3)-6)
	}
	for name, tree := range map[string][]byte{"seed-rows": rowsTree.Build(), "seed-identity": identityTree.Build()} {
		if err := writeSeed(bkdDir, name, tree, int64(-2), int64(3)); err != nil {
			return err
		}
		if err := writeSeed(bkdDir, name+"-truncated", tree[:len(tree)/2], int64(-6), int64(6)); err != nil {
			return err
		}
	}

	// internal/index/inverted: a front-coded dictionary of more than one
	// restart interval, with a term in every row (bitset postings) and
	// terms in one (delta postings), and a truncated copy. seed-dict and
	// seed-truncated in this directory are the encoding before the
	// front-coded one, kept as checked in, as input Open must refuse or
	// survive.
	ib := inverted.NewBuilder()
	for i := 0; i < 40; i++ {
		ib.Add(uint32(i), fmt.Sprintf("GET /api/v%d/query %d served", i%3, 200+i))
	}
	ib.Add(40, "alpha beta gamma")
	dict := ib.Build()
	invDir := filepath.Join(root, "internal/index/inverted/testdata/fuzz/FuzzInvertedOpen")
	if err := writeSeed(invDir, "seed-front-coded", dict); err != nil {
		return err
	}
	if err := writeSeed(invDir, "seed-front-coded-truncated", dict[:len(dict)/2]); err != nil {
		return err
	}

	// internal/wal: a framed segment, and one whose tail record is torn.
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	frame := func(payloads ...[]byte) []byte {
		var out []byte
		for _, p := range payloads {
			var hdr [8]byte
			binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(p)))
			binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(p, castagnoli))
			out = append(out, hdr[:]...)
			out = append(out, p...)
		}
		return out
	}
	seg := frame([]byte("first record"), []byte("second record"), []byte("third"))
	walDir := filepath.Join(root, "internal/wal/testdata/fuzz/FuzzWALReplay")
	if err := writeSeed(walDir, "seed-segment", seg); err != nil {
		return err
	}
	if err := writeSeed(walDir, "seed-torn", seg[:len(seg)-3]); err != nil {
		return err
	}

	// internal/logblock: a full packed object for OpenReader, and raw
	// data members for FuzzDecodeBlockData.
	built, err := logblock.Build(schema.RequestLogSchema(), seedRows(48), logblock.BuildOptions{BlockRows: 16})
	if err != nil {
		return err
	}
	packed, err := built.Pack()
	if err != nil {
		return err
	}
	// seed-packed and seed-truncated in this directory hold the same
	// rows in the oldest tar layout (a tar member per part),
	// seed-packed-four-members and seed-truncated-four-members in the
	// four-member tar with the legacy index encoding, and
	// seed-packed-compact-index and seed-truncated-compact-index in the
	// four-member tar with the compact one. No code writes a tar any
	// more, so they are kept as checked in — OpenReader must refuse them
	// with ErrLegacyLayout — and the footer layout gets seeds of its own:
	// the object, and the ways its trailer and manifest can lie. The
	// trailer is the last 10 bytes: the manifest's length (u32), the
	// format version (u16) and a magic.
	const trailerSize = 10
	trailerAt := len(packed) - trailerSize
	manifestTooLong := slices.Clone(packed)
	binary.LittleEndian.PutUint32(manifestTooLong[trailerAt:], uint32(len(packed)))
	// The manifest's last record is the meta's, and its last byte the
	// high byte of the meta's size: one more runs the parts into the
	// manifest.
	sizesPastTrailer := slices.Clone(packed)
	sizesPastTrailer[trailerAt-1]++
	// Three metas of the current encoding: a LogBlock of one column
	// block, whose meta elides the block headers; one with indexes
	// (MinIndexedRows rows) in four blocks, whose log column bounds
	// are cut; and the first with its block count raised to 2, which
	// the elision forbids.
	single, err := packBlock(seedRows(40), logblock.BuildOptions{})
	if err != nil {
		return err
	}
	indexed, err := packBlock(seedRows(logblock.MinIndexedRows), logblock.BuildOptions{BlockRows: logblock.MinIndexedRows / 4})
	if err != nil {
		return err
	}
	elidedTwoBlocks, err := raiseBlockCount(single)
	if err != nil {
		return err
	}
	opens := map[string]bool{"seed-footer": true, "seed-footer-single-block": true, "seed-footer-indexed": true}
	openDir := filepath.Join(root, "internal/logblock/testdata/fuzz/FuzzOpenReader")
	for name, obj := range map[string][]byte{
		"seed-footer":                    packed,
		"seed-footer-truncated-trailer":  packed[:len(packed)-2],
		"seed-footer-manifest-too-long":  manifestTooLong,
		"seed-footer-sizes-past-trailer": sizesPastTrailer,
		"seed-footer-single-block":       single,
		"seed-footer-indexed":            indexed,
		"seed-footer-elided-two-blocks":  elidedTwoBlocks,
	} {
		_, err := logblock.OpenReader(logblock.BytesFetcher(obj))
		if opens[name] != (err == nil) {
			return fmt.Errorf("logblock seed %s: open returned %v", name, err)
		}
		if err := writeSeed(openDir, name, obj); err != nil {
			return err
		}
	}
	// internal/tarblock: the tars of older releases checked in beside
	// the logblock tests, whole and torn in half, for the decoder the
	// one-time rewrite reads them with.
	tarDir := filepath.Join(root, "internal/tarblock/testdata/fuzz/FuzzOpen")
	for _, name := range []string{"parent_layout", "legacy_index", "four_member"} {
		obj, err := os.ReadFile(filepath.Join(root, "internal/logblock/testdata", name+".tar"))
		if err != nil {
			return err
		}
		if err := writeSeed(tarDir, "seed-"+name, obj); err != nil {
			return err
		}
		if err := writeSeed(tarDir, "seed-"+name+"-torn", obj[:len(obj)/2]); err != nil {
			return err
		}
	}
	decodeDir := filepath.Join(root, "internal/logblock/testdata/fuzz/FuzzDecodeBlockData")
	for _, ci := range []int{0, 2} { // one int column, one string column
		raw := built.DataPart(ci, 0)
		if err := writeSeed(decodeDir, fmt.Sprintf("seed-col%d", ci), ci, 0, raw); err != nil {
			return err
		}
	}
	// internal/worker: group proposals as the state machine reads them
	// back from a raft WAL or a shipped chunk — empty, one sub, a
	// nine-tenant unit — and the ways the framing can lie.
	var subs [][]byte
	for i := 0; i < 9; i++ {
		subs = append(subs, worker.AppendSubProposal(nil, seedRows(1+i%2)))
	}
	nine := worker.EncodeGroupProposal(subs)
	subDir := filepath.Join(root, "internal/worker/testdata/fuzz/FuzzForEachSub")
	for name, data := range map[string][]byte{
		"seed-empty":     worker.EncodeGroupProposal(nil),
		"seed-one":       worker.EncodeGroupProposal(subs[:1]),
		"seed-nine":      nine,
		"seed-truncated": nine[:len(nine)-5],
		"seed-short-sub": {1, 7, 1, 2, 3, 4, 5, 6, 7},                                                            // a sub too short for its batch id
		"seed-many-subs": binary.AppendUvarint(nil, 1<<20+1),                                                     // nsubs above maxGroupSubs
		"seed-long-sub":  {1, 0xff, 0xff, 0xff, 0xff, 0x0f},                                                      // sub length far beyond the input
		"seed-many-rows": worker.EncodeGroupProposal([][]byte{{0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0x07}}), // 16M rows in 0 bytes
	} {
		if err := writeSeed(subDir, name, data); err != nil {
			return err
		}
	}
	// internal/rowstore: one sub's batch as a shard's apply takes it —
	// empty, one row, several — and the ways a row can fail to be one of
	// the table's.
	five := rowstore.EncodeBatch(nil, seedRows(5))
	one := rowstore.EncodeBatch(nil, seedRows(1))
	wrongKind := append([]byte(nil), one...)
	wrongKind[2] = byte(schema.String) // the tenant id claims to be a string
	batchDir := filepath.Join(root, "internal/rowstore/testdata/fuzz/FuzzAppendBatch")
	for name, data := range map[string][]byte{
		"seed-empty":      rowstore.EncodeBatch(nil, nil),
		"seed-one":        one,
		"seed-five":       five,
		"seed-truncated":  five[:len(five)-4],
		"seed-wrong-kind": wrongKind,
		"seed-arity":      rowstore.EncodeBatch(nil, []schema.Row{{schema.IntValue(1), schema.IntValue(2)}}),
		"seed-many-rows":  {0xff, 0xff, 0xff, 0x07, 7},                                                           // 16M rows in one byte
		"seed-long-value": {1, 7, byte(schema.Int64), 2, byte(schema.Int64), 4, byte(schema.String), 0xff, 0x0f}, // a string far beyond the input
	} {
		if err := writeSeed(batchDir, name, data); err != nil {
			return err
		}
	}
	// internal/query: statements as clients send them — the paper's
	// retrieval template, the BI shape, MATCH with a prefix, an escaped
	// quote — and the ways one can fail to be one.
	parseDir := filepath.Join(root, "internal/query/testdata/fuzz/FuzzParse")
	for name, sql := range map[string]string{
		"seed-template":     "SELECT log FROM request_log WHERE tenant_id = 12276 AND ts >= 1604995200000 AND ts <= 1604998800000 AND ip = '192.168.0.1' AND latency >= 100 AND fail = 'false'",
		"seed-group-by":     "SELECT api, COUNT(*) FROM request_log WHERE tenant_id = 3 AND ts >= 0 AND ts <= 99 GROUP BY api ORDER BY COUNT(*) DESC LIMIT 5",
		"seed-match":        "select log from request_log where tenant_id = 1 and log match 'upstream time*' order by ts asc limit 20",
		"seed-escape":       "SELECT * FROM request_log WHERE tenant_id = 1 AND log = 'it''s' AND api <> '' AND latency != -7",
		"seed-unterminated": "SELECT log FROM request_log WHERE ip = 'unterminated",
		"seed-bad-char":     "SELECT log FROM request_log WHERE x = 1 ; DROP TABLE",
	} {
		if err := writeSeed(parseDir, name, sql); err != nil {
			return err
		}
	}
	// internal/ship: the objects a shipper writes for one shard — a
	// snapshot, a chunk and its commit record, read back from the store —
	// and the ways each can lie.
	objs, err := shippedObjects()
	if err != nil {
		return err
	}
	snap, chunk, commit := objs["snap"], objs["chunk-00000000"], objs["commit-00000000"]
	if snap == nil || chunk == nil || commit == nil {
		return fmt.Errorf("shipper wrote %d objects, want a snapshot, a chunk and a commit", len(objs))
	}
	magic := func(obj []byte) []byte { return append([]byte(nil), obj[:8]...) }
	// A snapshot whose CRC holds but whose entry count does not.
	manySnap := binary.AppendUvarint(magic(snap), 2) // term
	manySnap = binary.AppendUvarint(manySnap, 4)     // applied
	manySnap = binary.AppendUvarint(manySnap, 2)     // applied term
	manySnap = binary.AppendUvarint(manySnap, 0)     // dedup ids
	manySnap = binary.AppendUvarint(manySnap, 1<<22) // entries
	manySnap = binary.LittleEndian.AppendUint32(manySnap, crc32.Checksum(manySnap, castagnoli))
	shipDir := filepath.Join(root, "internal/ship/testdata/fuzz/FuzzShipDecode")
	for name, data := range map[string][]byte{
		"seed-snap":               snap,
		"seed-snap-truncated":     snap[:len(snap)-5],
		"seed-snap-many-entries":  manySnap,
		"seed-chunk":              chunk,
		"seed-chunk-truncated":    chunk[:len(chunk)-3],
		"seed-chunk-many-entries": binary.AppendUvarint(magic(chunk), 1<<22),                       // 4M entries in no bytes
		"seed-chunk-long-data":    append(binary.AppendUvarint(magic(chunk), 1), 1, 1, 0xff, 0x0f), // data far beyond the input
		"seed-commit":             commit,
		"seed-commit-truncated":   commit[:len(commit)/2],
	} {
		if err := writeSeed(shipDir, name, data); err != nil {
			return err
		}
	}
	// internal/meta: a catalog checkpoint as Marshal writes it — blocks
	// of two tenants, retentions, a drained block's segment tag — and the
	// ways a snapshot can lie, retentions a duration cannot hold among them.
	catalog := meta.NewManager()
	for i, b := range []meta.BlockInfo{
		{Tenant: 1, Path: meta.BlockPath("request_log", 1, 1000, 1), MinTS: 1000, MaxTS: 1999, Rows: 40, Bytes: 5120, CreatedMS: 2000, BornSegment: 3},
		{Tenant: 1, Path: meta.BlockPath("request_log", 1, 2000, 2), MinTS: 2000, MaxTS: 2999, Rows: 60, Bytes: 7168, CreatedMS: 3000},
		{Tenant: 7, Path: meta.BlockPath("request_log", 7, 1500, 3), MinTS: 1500, MaxTS: 1500, Rows: 1, Bytes: 2048, CreatedMS: 1600},
	} {
		if err := catalog.Register(b); err != nil {
			return fmt.Errorf("catalog block %d: %w", i, err)
		}
	}
	catalog.SetRetention(1, 24*time.Hour)
	catalog.SetRetention(7, time.Minute)
	snapshot, err := catalog.Marshal()
	if err != nil {
		return err
	}
	const oneBlock = `"blocks":{"1":[{"tenant":1,"path":"a","min_ts":100,"max_ts":200}]}`
	catalogDir := filepath.Join(root, "internal/meta/testdata/fuzz/FuzzCatalogUnmarshal")
	for name, data := range map[string]string{
		"seed-catalog":            string(snapshot),
		"seed-truncated":          string(snapshot[:len(snapshot)/2]),
		"seed-retention-zero":     `{` + oneBlock + `,"retention_ms":{"1":0}}`,
		"seed-retention-negative": `{` + oneBlock + `,"retention_ms":{"1":-1}}`,
		"seed-retention-overflow": `{` + oneBlock + `,"retention_ms":{"1":9223372036855}}`,
		"seed-path-twice":         `{"blocks":{"1":[{"tenant":1,"path":"a","min_ts":0,"max_ts":1}],"2":[{"tenant":2,"path":"a","min_ts":0,"max_ts":1}]}}`,
	} {
		if err := writeSeed(catalogDir, name, []byte(data)); err != nil {
			return err
		}
	}
	// internal/raft: one WAL entry as AppendTo writes it, one with no
	// data, and the ways the framing can lie.
	entry := raft.Entry{Term: 3, Index: 17, Data: []byte("a proposal's bytes")}.AppendTo(nil)
	entryDir := filepath.Join(root, "internal/raft/testdata/fuzz/FuzzDecodeEntry")
	for name, data := range map[string][]byte{
		"seed-entry":            entry,
		"seed-empty-data":       raft.Entry{Term: 1, Index: 1}.AppendTo(nil),
		"seed-truncated-varint": {0x83, 0x80},                 // a term whose varint never ends
		"seed-long-data":        {3, 17, 0xff, 0xff, 0x0f, 1}, // data far beyond the input
	} {
		if err := writeSeed(entryDir, name, data); err != nil {
			return err
		}
	}
	// internal/raft: WAL records read back from a log and framed with a
	// uvarint length each — a log with a conflict replaced and a
	// checkpoint, as the node that ran elections wrote it (its 'S'
	// records carry vote+1, and only it wrote 'T'), one with a gap in
	// its entries as a WALStorage writes it, and a torn copy.
	walRecs, err := walRecords(func(dir string) error {
		l, err := wal.Open(dir, wal.Options{})
		if err != nil {
			return err
		}
		record := func(tag byte, fields ...uint64) []byte {
			out := []byte{tag}
			for _, v := range fields {
				out = binary.AppendUvarint(out, v)
			}
			return out
		}
		entry := func(e raft.Entry) []byte { return e.AppendTo([]byte{'E'}) }
		_, err = l.AppendBatch([][]byte{
			record('S', 2, 2), // term 2, voted for node 1
			entry(raft.Entry{Term: 1, Index: 1, Data: []byte("a")}),
			entry(raft.Entry{Term: 1, Index: 2, Data: []byte("b")}),
			entry(raft.Entry{Term: 1, Index: 3}),
			record('T', 3),
			entry(raft.Entry{Term: 2, Index: 3, Data: []byte("c")}),
			entry(raft.Entry{Term: 2, Index: 4, Data: []byte("d")}),
			record('A', 2, 1), // Checkpoint(2): the mark, then the state again
			record('S', 2, 2),
		})
		if cerr := l.Close(); err == nil {
			err = cerr
		}
		return err
	})
	if err != nil {
		return err
	}
	gapRecs, err := walRecords(func(dir string) error {
		s, err := raft.OpenWALStorage(dir, wal.Options{})
		if err != nil {
			return err
		}
		s.Append([]raft.Entry{{Term: 1, Index: 1}, {Term: 1, Index: 2}})
		s.Append([]raft.Entry{{Term: 1, Index: 4}, {Term: 1, Index: 5}})
		return s.Close()
	})
	if err != nil {
		return err
	}
	replayDir := filepath.Join(root, "internal/raft/testdata/fuzz/FuzzWALStorageReplay")
	for name, data := range map[string][]byte{
		"seed-log":       walRecs,
		"seed-gap":       gapRecs,
		"seed-truncated": walRecs[:len(walRecs)-3],
	} {
		if err := writeSeed(replayDir, name, data); err != nil {
			return err
		}
	}
	// internal/httpapi: request bodies as clients send them — an append
	// of two tenants' records, one with its time left to the server, and
	// the ways a JSON body can fail to be an array of records.
	appendDir := filepath.Join(root, "internal/httpapi/testdata/fuzz/FuzzAppendBody")
	for name, body := range map[string]string{
		"seed-records":      `[{"tenant":7,"ts":1000,"ip":"10.0.0.1","api":"/q","latency":42,"fail":"false","log":"served fast"},{"tenant":3,"ts":0,"ip":"10.0.0.2","api":"/x","latency":900,"fail":"true","log":"upstream timeout"}]`,
		"seed-empty":        `[]`,
		"seed-null":         `null`,
		"seed-object":       `{"tenant":7}`,
		"seed-truncated":    `[{"tenant":7,"ts":1000,"log":"cut`,
		"seed-wrong-type":   `[{"tenant":"seven","ts":1000}]`,
		"seed-overflow":     `[{"tenant":7,"ts":1e400}]`,
		"seed-trailing":     `[{"tenant":1,"ts":5,"log":"a"}] and then some`,
		"seed-escaped-utf8": `[{"tenant":2,"ts":9,"log":"\u00e9\ud800 Gr\u00f6\u00dfe","api":"\/q"}]`,
	} {
		if err := writeSeed(appendDir, name, []byte(body)); err != nil {
			return err
		}
	}
	queryDir := filepath.Join(root, "internal/httpapi/testdata/fuzz/FuzzQueryBody")
	for name, sql := range map[string]string{
		"seed-select":    "SELECT log FROM request_log WHERE tenant_id = 7 AND ts >= 0 AND ts <= 2000 AND fail = 'true'",
		"seed-count":     "SELECT COUNT(*) FROM request_log WHERE tenant_id = 7 AND ts >= 0 AND ts <= 9999999999999",
		"seed-group-by":  "SELECT api, COUNT(*) FROM request_log WHERE tenant_id = 7 AND ts >= 0 AND ts <= 2000 GROUP BY api ORDER BY COUNT(*) DESC LIMIT 5",
		"seed-match":     "SELECT log FROM request_log WHERE tenant_id = 7 AND ts >= 0 AND ts <= 2000 AND log MATCH 'upstream time*'",
		"seed-no-tenant": "SELECT log FROM request_log WHERE latency > 5",
		"seed-empty":     "",
		"seed-garbage":   "NOT SQL AT ALL",
	} {
		if err := writeSeed(queryDir, name, sql); err != nil {
			return err
		}
	}
	fmt.Println("fuzz seed corpora regenerated")
	return nil
}
