// Package wal implements the segmented write-ahead log used by the
// local write phase (paper §3: "generating the WAL ... and writing to
// local disks"). Records are CRC-framed, segments rotate at a size
// threshold, and replay tolerates a torn tail (a partially written
// final record is discarded, everything before it is recovered). A
// segment is a run of frames and nothing else, so a run of frames
// shipped elsewhere (AppendFrame) is written back as a segment
// (WriteSegment) and replays like one.
package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"logstore/internal/fsutil"
)

// ErrClosed is returned for operations on a closed log.
var ErrClosed = errors.New("wal: closed")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Options configures a WAL.
type Options struct {
	// SegmentBytes rotates segments when they exceed this size
	// (0 = 64 MiB).
	SegmentBytes int64
	// SyncEveryAppend fsyncs after every append. The shard log instead
	// calls Sync once per group-committed run, before it acks.
	SyncEveryAppend bool
}

// Log is an append-only sequence of records with contiguous sequence
// numbers starting at 1.
type Log struct {
	dir  string
	opts Options

	mu      sync.Mutex
	seg     *os.File
	segBase uint64 // sequence number of the first record in seg
	segSize int64
	nextSeq uint64
	closed  bool
}

const segPrefix = "wal-"

func segName(base uint64) string {
	return fmt.Sprintf("%s%016d.log", segPrefix, base)
}

func parseSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, ".log") {
		return 0, false
	}
	mid := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), ".log")
	v, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// Open opens (or creates) the WAL in dir and scans existing segments to
// find the next sequence number. Torn tails are truncated.
func Open(dir string, opts Options) (*Log, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 64 << 20
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: create dir: %w", err)
	}
	l := &Log{dir: dir, opts: opts, nextSeq: 1}

	bases, err := l.segmentBases()
	if err != nil {
		return nil, err
	}
	if len(bases) > 0 {
		// Count records across all segments; repair the last one.
		for i, base := range bases {
			last := i == len(bases)-1
			n, err := l.scanSegment(base, last)
			if err != nil {
				return nil, err
			}
			l.nextSeq = base + uint64(n)
		}
		lastBase := bases[len(bases)-1]
		f, err := os.OpenFile(filepath.Join(dir, segName(lastBase)), os.O_RDWR|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("wal: reopen segment: %w", err)
		}
		st, err := f.Stat()
		if err != nil {
			_ = f.Close() // surfacing the stat failure; close is best-effort
			return nil, fmt.Errorf("wal: stat segment: %w", err)
		}
		l.seg = f
		l.segBase = lastBase
		l.segSize = st.Size()
	}
	return l, nil
}

func (l *Log) segmentBases() ([]uint64, error) {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return nil, fmt.Errorf("wal: read dir: %w", err)
	}
	var bases []uint64
	for _, e := range entries {
		if base, ok := parseSegName(e.Name()); ok {
			bases = append(bases, base)
		}
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
	return bases, nil
}

// scanSegment counts valid records in a segment; when repair is set a
// torn tail is truncated in place.
func (l *Log) scanSegment(base uint64, repair bool) (int, error) {
	path := filepath.Join(l.dir, segName(base))
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("wal: open segment: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, fmt.Errorf("wal: stat segment: %w", err)
	}
	n, valid, err := readFrames(f, st.Size(), nil)
	if err != nil {
		return 0, err
	}
	if repair && st.Size() > valid {
		if err := os.Truncate(path, valid); err != nil {
			return 0, fmt.Errorf("wal: truncate torn tail: %w", err)
		}
	}
	return n, nil
}

// readFrames reads the frames of one segment, size bytes long, from r
// and calls fn (when not nil) with each intact record, in order. It
// stops at the first torn or corrupt frame — a length beyond the bytes
// left, a short read or a CRC mismatch — so no record buffer is sized
// past the input. It returns the intact records and the bytes they
// take.
func readFrames(r io.Reader, size int64, fn func(payload []byte) error) (n int, valid int64, err error) {
	var hdr [8]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) {
				return n, valid, nil // the end, or a torn header
			}
			return 0, 0, fmt.Errorf("wal: read header: %w", err)
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		if int64(length) > size-valid-8 {
			return n, valid, nil // length field beyond the input: torn or corrupt tail
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(r, payload); err != nil {
			if errors.Is(err, io.ErrUnexpectedEOF) {
				return n, valid, nil // torn payload
			}
			return 0, 0, fmt.Errorf("wal: read record: %w", err)
		}
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(hdr[4:8]) {
			return n, valid, nil // corrupt record: stop here
		}
		if fn != nil {
			if err := fn(payload); err != nil {
				return 0, 0, err
			}
		}
		n++
		valid += 8 + int64(length)
	}
}

// AppendFrame appends payload to dst as one record frame: its length
// (4 bytes, little-endian), its CRC32C, then the payload itself.
func AppendFrame(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, castagnoli))
	return append(dst, payload...)
}

// Append writes one record and returns its sequence number.
func (l *Log) Append(payload []byte) (uint64, error) {
	return l.AppendBatch([][]byte{payload})
}

// AppendBatch writes a run of records with one lock acquisition and one
// buffered write (and, with SyncEveryAppend, one fsync for the whole
// run) — the durable half of group commit: N raft entries become one
// segment write instead of 2N. Returns the sequence number of the first
// record; the rest follow contiguously.
func (l *Log) AppendBatch(payloads [][]byte) (uint64, error) {
	if len(payloads) == 0 {
		return 0, nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.seg == nil || l.segSize >= l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return 0, err
		}
	}
	total := 0
	for _, p := range payloads {
		total += 8 + len(p)
	}
	buf := make([]byte, 0, total)
	for _, p := range payloads {
		buf = AppendFrame(buf, p)
	}
	if _, err := l.seg.Write(buf); err != nil {
		return 0, fmt.Errorf("wal: write batch: %w", err)
	}
	l.segSize += int64(total)
	if l.opts.SyncEveryAppend {
		if err := l.seg.Sync(); err != nil {
			return 0, fmt.Errorf("wal: sync: %w", err)
		}
	}
	first := l.nextSeq
	l.nextSeq += uint64(len(payloads))
	return first, nil
}

func (l *Log) rotateLocked() error {
	if l.seg != nil {
		if err := l.seg.Sync(); err != nil {
			return fmt.Errorf("wal: sync before rotate: %w", err)
		}
		if err := l.seg.Close(); err != nil {
			return fmt.Errorf("wal: close segment: %w", err)
		}
	}
	base := l.nextSeq
	f, err := os.OpenFile(filepath.Join(l.dir, segName(base)), os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	// The new name must be durable before a record in it is: a Sync of
	// the file alone leaves the directory entry to the next crash.
	if err := fsutil.SyncDir(l.dir); err != nil {
		_ = f.Close() // surfacing the sync failure; close is best-effort
		return fmt.Errorf("wal: %w", err)
	}
	l.seg = f
	l.segBase = base
	l.segSize = 0
	return nil
}

// Sync flushes the active segment to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.seg == nil {
		return nil
	}
	return l.seg.Sync()
}

// NextSeq returns the sequence number the next Append will get.
func (l *Log) NextSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq
}

// Replay invokes fn for every record in order. It must not be called
// concurrently with Append.
func (l *Log) Replay(fn func(seq uint64, payload []byte) error) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	if l.seg != nil {
		if err := l.seg.Sync(); err != nil {
			l.mu.Unlock()
			return fmt.Errorf("wal: sync before replay: %w", err)
		}
	}
	bases, err := l.segmentBases()
	l.mu.Unlock()
	if err != nil {
		return err
	}
	for _, base := range bases {
		f, err := os.Open(filepath.Join(l.dir, segName(base)))
		if err != nil {
			return fmt.Errorf("wal: open segment for replay: %w", err)
		}
		st, err := f.Stat()
		if err != nil {
			_ = f.Close() // read-only handle; the stat error wins
			return fmt.Errorf("wal: stat segment for replay: %w", err)
		}
		seq := base
		_, _, err = readFrames(f, st.Size(), func(payload []byte) error {
			err := fn(seq, payload)
			seq++
			return err
		})
		_ = f.Close() // read-only handle
		if err != nil {
			return err
		}
	}
	return nil
}

// TruncateFront removes whole segments whose records all precede
// keepSeq, then syncs the directory once. Records >= keepSeq are always
// retained (truncation is segment-granular, like checkpoint-driven WAL
// recycling).
func (l *Log) TruncateFront(keepSeq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	doomed, err := l.doomedLocked(keepSeq)
	if err != nil || len(doomed) == 0 {
		return err
	}
	for _, base := range doomed {
		if err := os.Remove(filepath.Join(l.dir, segName(base))); err != nil {
			return fmt.Errorf("wal: remove segment: %w", err)
		}
	}
	if err := fsutil.SyncDir(l.dir); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

// Truncates reports whether TruncateFront(keepSeq) would remove a
// segment now.
func (l *Log) Truncates(keepSeq uint64) (bool, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return false, ErrClosed
	}
	doomed, err := l.doomedLocked(keepSeq)
	return len(doomed) > 0, err
}

// doomedLocked lists the segments TruncateFront(keepSeq) removes: each
// whose NEXT segment starts at or before keepSeq (so every record in it
// is < keepSeq), except the active one.
func (l *Log) doomedLocked(keepSeq uint64) ([]uint64, error) {
	bases, err := l.segmentBases()
	if err != nil {
		return nil, err
	}
	var doomed []uint64
	for i, base := range bases {
		if i+1 < len(bases) && bases[i+1] <= keepSeq && base != l.segBase {
			doomed = append(doomed, base)
		}
	}
	return doomed, nil
}

// WriteSegment makes data, a run of whole frames (AppendFrame), the
// first segment of a new log in dir. It refuses data that ends in a torn
// or corrupt frame, and a dir that already holds a log. The segment is
// written under a temporary name, synced, renamed into place and the
// directory synced (fsutil.WriteFile), so a crash or a failed write
// leaves no partial segment that Open would take for a log. Hydration
// writes a shard's shipped log back with it; Open then reads it like
// any other log.
func WriteSegment(dir string, data []byte) error {
	if _, valid, err := readFrames(bytes.NewReader(data), int64(len(data)), nil); err != nil {
		return err
	} else if valid != int64(len(data)) {
		return fmt.Errorf("wal: segment data is whole frames for %d of its %d bytes", valid, len(data))
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("wal: create dir: %w", err)
	}
	if empty, err := Empty(dir); err != nil || !empty {
		if err == nil {
			err = fmt.Errorf("wal: %s already holds a log", dir)
		}
		return err
	}
	if err := fsutil.WriteFile(filepath.Join(dir, segName(1)), data); err != nil {
		return fmt.Errorf("wal: write segment: %w", err)
	}
	return nil
}

// Empty reports whether dir holds no log: no segment, or no dir at
// all. Other files in it, such as a temporary file a crashed
// WriteSegment left, are no log.
func Empty(dir string) (bool, error) {
	bases, err := (&Log{dir: dir}).segmentBases()
	if errors.Is(err, os.ErrNotExist) {
		return true, nil
	}
	return len(bases) == 0, err
}

// Close syncs and closes the active segment.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.seg != nil {
		if err := l.seg.Sync(); err != nil {
			_ = l.seg.Close() // surfacing the sync failure; close is best-effort
			return fmt.Errorf("wal: sync on close: %w", err)
		}
		return l.seg.Close()
	}
	return nil
}
