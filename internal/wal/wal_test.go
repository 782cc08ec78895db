package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func openLog(t *testing.T, dir string, opts Options) *Log {
	t.Helper()
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func appendN(t *testing.T, l *Log, start, n int) {
	t.Helper()
	for i := start; i < start+n; i++ {
		seq, err := l.Append([]byte(fmt.Sprintf("record-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("Append %d returned seq %d, want %d", i, seq, i+1)
		}
	}
}

func replayAll(t *testing.T, l *Log) map[uint64]string {
	t.Helper()
	got := map[uint64]string{}
	err := l.Replay(func(seq uint64, payload []byte) error {
		got[seq] = string(payload)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestAppendReplay(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir, Options{})
	appendN(t, l, 0, 100)
	got := replayAll(t, l)
	if len(got) != 100 {
		t.Fatalf("replayed %d records", len(got))
	}
	for i := 0; i < 100; i++ {
		if got[uint64(i+1)] != fmt.Sprintf("record-%d", i) {
			t.Fatalf("seq %d = %q", i+1, got[uint64(i+1)])
		}
	}
	if l.NextSeq() != 101 {
		t.Errorf("NextSeq = %d", l.NextSeq())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestReopenContinuesSequence(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir, Options{})
	appendN(t, l, 0, 10)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2 := openLog(t, dir, Options{})
	defer l2.Close()
	if l2.NextSeq() != 11 {
		t.Fatalf("NextSeq after reopen = %d, want 11", l2.NextSeq())
	}
	appendN(t, l2, 10, 5)
	got := replayAll(t, l2)
	if len(got) != 15 {
		t.Fatalf("replayed %d records after reopen", len(got))
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir, Options{SegmentBytes: 256})
	appendN(t, l, 0, 100) // ~18 bytes each -> many segments
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 3 {
		t.Fatalf("only %d segments, expected rotation", len(entries))
	}
	got := replayAll(t, l)
	if len(got) != 100 {
		t.Fatalf("replayed %d records across segments", len(got))
	}
	l.Close()
	// Reopen across many segments.
	l2 := openLog(t, dir, Options{SegmentBytes: 256})
	defer l2.Close()
	if l2.NextSeq() != 101 {
		t.Fatalf("NextSeq = %d", l2.NextSeq())
	}
}

func TestTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir, Options{})
	appendN(t, l, 0, 20)
	l.Close()

	// Corrupt the tail: append garbage bytes simulating a torn write.
	entries, _ := os.ReadDir(dir)
	last := filepath.Join(dir, entries[len(entries)-1].Name())
	f, err := os.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x10, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2 := openLog(t, dir, Options{})
	defer l2.Close()
	if l2.NextSeq() != 21 {
		t.Fatalf("NextSeq after torn tail = %d, want 21", l2.NextSeq())
	}
	got := replayAll(t, l2)
	if len(got) != 20 {
		t.Fatalf("replayed %d records, want 20", len(got))
	}
	// The log must keep working after repair.
	appendN(t, l2, 20, 3)
	if len(replayAll(t, l2)) != 23 {
		t.Fatal("append after repair broken")
	}
}

func TestCorruptMiddleRecordStopsReplay(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir, Options{})
	appendN(t, l, 0, 10)
	l.Close()

	// Flip a payload byte in the middle of the single segment.
	entries, _ := os.ReadDir(dir)
	path := filepath.Join(dir, entries[0].Name())
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2 := openLog(t, dir, Options{})
	defer l2.Close()
	got := replayAll(t, l2)
	if len(got) >= 10 {
		t.Fatalf("replay returned %d records despite corruption", len(got))
	}
	// Recovery truncated at the corruption point; sequence resumes there.
	if l2.NextSeq() != uint64(len(got))+1 {
		t.Fatalf("NextSeq = %d with %d valid records", l2.NextSeq(), len(got))
	}
}

func TestTruncateFront(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir, Options{SegmentBytes: 200})
	appendN(t, l, 0, 60)
	before, _ := os.ReadDir(dir)
	if len(before) < 4 {
		t.Fatalf("need several segments, have %d", len(before))
	}
	if err := l.TruncateFront(40); err != nil {
		t.Fatal(err)
	}
	after, _ := os.ReadDir(dir)
	if len(after) >= len(before) {
		t.Fatalf("TruncateFront removed nothing: %d -> %d segments", len(before), len(after))
	}
	// Records >= 40 must survive.
	got := replayAll(t, l)
	for seq := uint64(40); seq <= 60; seq++ {
		if _, ok := got[seq]; !ok {
			t.Fatalf("record %d lost by TruncateFront", seq)
		}
	}
	defer l.Close()
}

func TestEmptyLog(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir, Options{})
	defer l.Close()
	if l.NextSeq() != 1 {
		t.Errorf("NextSeq on empty = %d", l.NextSeq())
	}
	if got := replayAll(t, l); len(got) != 0 {
		t.Errorf("empty replay = %v", got)
	}
	if err := l.Sync(); err != nil {
		t.Errorf("Sync on empty: %v", err)
	}
	if err := l.TruncateFront(100); err != nil {
		t.Errorf("TruncateFront on empty: %v", err)
	}
}

func TestClosedOperations(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir, Options{})
	appendN(t, l, 0, 1)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
	if _, err := l.Append([]byte("x")); err != ErrClosed {
		t.Errorf("Append after close = %v", err)
	}
	if err := l.Sync(); err != ErrClosed {
		t.Errorf("Sync after close = %v", err)
	}
	if err := l.Replay(func(uint64, []byte) error { return nil }); err != ErrClosed {
		t.Errorf("Replay after close = %v", err)
	}
}

func TestSyncEveryAppend(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir, Options{SyncEveryAppend: true})
	defer l.Close()
	appendN(t, l, 0, 5)
	if len(replayAll(t, l)) != 5 {
		t.Fatal("synced appends lost")
	}
}

func TestReplayCallbackError(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir, Options{})
	defer l.Close()
	appendN(t, l, 0, 5)
	wantErr := fmt.Errorf("stop")
	calls := 0
	err := l.Replay(func(uint64, []byte) error {
		calls++
		if calls == 3 {
			return wantErr
		}
		return nil
	})
	if err != wantErr || calls != 3 {
		t.Errorf("Replay err = %v after %d calls", err, calls)
	}
}

func TestEmptyPayload(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir, Options{})
	defer l.Close()
	if _, err := l.Append(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte{}); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, l)
	if len(got) != 2 || got[1] != "" || got[2] != "" {
		t.Errorf("empty payload replay = %v", got)
	}
}

func BenchmarkAppend(b *testing.B) {
	dir := b.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	payload := make([]byte, 256)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Append(payload); err != nil {
			b.Fatal(err)
		}
	}
}

// TestTruncatedMidRecordRecovery simulates the other crash shape: the
// file is cut short partway through a record (power loss before the
// tail page hit disk), not extended with garbage. Reopen must replay
// the intact prefix, discard the torn record, and truncate the file
// back to the last valid boundary so later appends are clean.
func TestTruncatedMidRecordRecovery(t *testing.T) {
	cases := []struct {
		name string
		cut  int64 // bytes removed from the file tail
	}{
		{"mid-payload", 3}, // last record loses part of its payload
		{"mid-header", 13}, // "record-19" (9B) + 8B header - 4B left
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			l := openLog(t, dir, Options{})
			appendN(t, l, 0, 20)
			l.Close()

			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			last := filepath.Join(dir, entries[len(entries)-1].Name())
			st, err := os.Stat(last)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(last, st.Size()-tc.cut); err != nil {
				t.Fatal(err)
			}

			l2 := openLog(t, dir, Options{})
			defer l2.Close()
			// Record 20 is torn; seqs 1..19 survive.
			if l2.NextSeq() != 20 {
				t.Fatalf("NextSeq = %d, want 20", l2.NextSeq())
			}
			got := replayAll(t, l2)
			if len(got) != 19 {
				t.Fatalf("replayed %d records, want 19", len(got))
			}
			for i := 0; i < 19; i++ {
				if got[uint64(i+1)] != fmt.Sprintf("record-%d", i) {
					t.Fatalf("seq %d = %q", i+1, got[uint64(i+1)])
				}
			}
			// Repair must leave a clean boundary: new appends replay.
			appendN(t, l2, 19, 2)
			if len(replayAll(t, l2)) != 21 {
				t.Fatal("append after mid-record repair broken")
			}
		})
	}
}

// TestWriteSegment: a run of whole frames becomes a log's first segment
// and replays; a run that ends inside a frame and a dir that holds a log
// are refused, and neither refusal leaves a file behind. A temporary
// file a crashed write left is no log, and the next write replaces it.
func TestWriteSegment(t *testing.T) {
	var data []byte
	for i := 0; i < 3; i++ {
		data = AppendFrame(data, []byte(fmt.Sprintf("record-%d", i)))
	}
	dir := filepath.Join(t.TempDir(), "log")
	if empty, err := Empty(dir); err != nil || !empty {
		t.Fatalf("Empty on a missing dir = %v, %v", empty, err)
	}
	if err := WriteSegment(dir, data[:len(data)-1]); err == nil {
		t.Fatal("a run torn inside its last frame was written")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, segName(1)+".tmp"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if empty, err := Empty(dir); err != nil || !empty {
		t.Fatalf("Empty beside a leftover temporary file = %v, %v", empty, err)
	}
	if err := WriteSegment(dir, data); err != nil {
		t.Fatal(err)
	}
	if err := WriteSegment(dir, data); err == nil {
		t.Fatal("a second segment written over a log")
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0].Name() != segName(1) {
		t.Fatalf("dir holds %v, want only %s", names, segName(1))
	}
	l := openLog(t, dir, Options{})
	defer l.Close()
	if got := replayAll(t, l); len(got) != 3 || got[3] != "record-2" {
		t.Fatalf("replayed %v", got)
	}
	if empty, err := Empty(dir); err != nil || empty {
		t.Fatalf("Empty on a written log = %v, %v", empty, err)
	}
}
