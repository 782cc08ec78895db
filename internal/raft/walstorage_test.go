package raft

import (
	"encoding/binary"
	"fmt"
	"testing"

	"logstore/internal/wal"
)

func openWS(t *testing.T, dir string) *WALStorage {
	t.Helper()
	s, err := OpenWALStorage(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// tempWS opens a WALStorage in a fresh directory, closed when the test
// ends.
func tempWS(t *testing.T) *WALStorage {
	t.Helper()
	s := openWS(t, t.TempDir())
	t.Cleanup(func() { s.Close() })
	return s
}

// live returns the storage's entries above its base.
func live(s *WALStorage) []Entry {
	_, entries := s.Log()
	return entries
}

// appendRaw appends WAL records to the log in dir as they are given:
// the way to write what only older code wrote.
func appendRaw(t *testing.T, dir string, recs ...[]byte) {
	t.Helper()
	l, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendBatch(recs); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// record encodes a WAL record of tag with uvarint fields.
func record(tag byte, fields ...uint64) []byte {
	out := []byte{tag}
	for _, v := range fields {
		out = binary.AppendUvarint(out, v)
	}
	return out
}

// TestWALStorageStateRoundTrip: the state records older logs hold —
// a term, or a term and a vote — replay to nothing and leave the
// entries around them in place, and the log writes none of its own.
func TestWALStorageStateRoundTrip(t *testing.T) {
	dir := t.TempDir()
	appendRaw(t, dir,
		record(walTagState, 1, 0),
		entryRecord(Entry{Index: 1, Data: []byte("a")}),
		record(walTagState, 9, 2),
		append([]byte{walTagEntry}, 3, 2, 1, 'b'), // an entry of term 3
	)
	s := openWS(t, dir)
	got := live(s)
	if len(got) != 2 || string(got[0].Data) != "a" || got[1].Index != 2 || string(got[1].Data) != "b" {
		t.Fatalf("replayed %+v around two state records, want entries 1 and 2", got)
	}
	s.Append([]Entry{{Index: 3, Data: []byte("c")}})
	if err := s.Checkpoint(2, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	l, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var tags []byte
	if err := l.Replay(func(_ uint64, rec []byte) error {
		tags = append(tags, rec[0])
		if rec[0] == walTagEntry && rec[1] != 0 && len(tags) > 4 {
			t.Errorf("entry record %x written with a term", rec)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if string(tags) != "SESEEA" {
		t.Fatalf("log holds records %q, want the four old ones, then E and A", tags)
	}
}

func TestWALStorageEntriesSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	s := openWS(t, dir)
	var ents []Entry
	for i := 1; i <= 50; i++ {
		ents = append(ents, Entry{Index: uint64(i), Data: []byte(fmt.Sprintf("e%d", i))})
	}
	s.Append(ents)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openWS(t, dir)
	defer s2.Close()
	got := live(s2)
	if len(got) != 50 {
		t.Fatalf("recovered %d entries", len(got))
	}
	for i, e := range got {
		if e.Index != uint64(i+1) || string(e.Data) != fmt.Sprintf("e%d", i+1) {
			t.Fatalf("entry %d = %+v", i, e)
		}
	}
}

// TestWALStorageTruncateSurvivesRestart: a truncation record, which
// only the node that repaired a follower's log wrote, still drops the
// entries at and above its index on replay.
func TestWALStorageTruncateSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s := openWS(t, dir)
	s.Append([]Entry{
		{Index: 1, Data: []byte("a")},
		{Index: 2, Data: []byte("b")},
		{Index: 3, Data: []byte("c")},
	})
	s.Close()
	appendRaw(t, dir, record(walTagTruncate, 2))
	s = openWS(t, dir)
	if got := live(s); len(got) != 1 {
		t.Fatalf("%d entries survive a truncation at 2", len(got))
	}
	// Conflicting entries replaced at the same indexes.
	s.Append([]Entry{
		{Index: 2, Data: []byte("b2")},
		{Index: 3, Data: []byte("c2")},
	})
	s.Close()

	s2 := openWS(t, dir)
	defer s2.Close()
	got := live(s2)
	if len(got) != 3 {
		t.Fatalf("entries = %d", len(got))
	}
	if string(got[1].Data) != "b2" || string(got[2].Data) != "c2" {
		t.Fatalf("entry 2 = %+v", got[1])
	}
}

func TestWALStorageCheckpoint(t *testing.T) {
	dir := t.TempDir()
	// Small segments so checkpointing has segments to recycle.
	s, err := OpenWALStorage(dir, wal.Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 100; i++ {
		s.Append([]Entry{{Index: uint64(i), Data: []byte(fmt.Sprintf("entry-%03d", i))}})
	}
	// The checkpoint unlinks segments, so its record carries the ids.
	if err := s.Checkpoint(90, func() []uint64 { return []uint64{7, 9} }); err != nil {
		t.Fatal(err)
	}
	// The log forgets what the mark covers at once, not at a reopen.
	if base, got := s.Log(); base != 90 || len(got) != 10 || got[0].Index != 91 {
		t.Fatalf("in memory after Checkpoint(90): base %d, %d entries", base, len(got))
	}
	s.Close()

	// After restart the log is rebased at the applied mark: the live
	// log resumes at 91 above base 90, and the checkpoint's ids and the
	// compacted prefix stay readable for dedup preloading. (The
	// old behaviour — discarding the whole log — made a restarted
	// group restart indexing at 1 underneath the durable applied mark,
	// silently dropping freshly acked rows.)
	s2 := openWS(t, dir)
	defer s2.Close()
	if base, _ := s2.Log(); base != 90 {
		t.Fatalf("base after checkpoint restart = %d, want 90", base)
	}
	got := live(s2)
	if len(got) != 10 || got[0].Index != 91 || got[9].Index != 100 {
		t.Fatalf("live log after restart = %d entries (first %v)", len(got), got)
	}
	ids, prefix := s2.Archived()
	if len(ids) != 2 || ids[0] != 7 || ids[1] != 9 {
		t.Fatalf("checkpoint ids after restart = %v, want [7 9]", ids)
	}
	for _, e := range prefix {
		if e.Index > 90 {
			t.Fatalf("prefix holds live entry %d", e.Index)
		}
	}
}

// TestWALStorageCheckpointForgetsArchived: Checkpoint(m) on a
// reopened log cuts its memory at m — the live entries are exactly
// those above m, the base is m and the replayed prefix is gone — and a
// reopen comes back to the same log.
func TestWALStorageCheckpointForgetsArchived(t *testing.T) {
	dir := t.TempDir()
	s := openWS(t, dir)
	for i := 1; i <= 30; i++ {
		s.Append([]Entry{{Index: uint64(i), Data: []byte(fmt.Sprintf("e%d", i))}})
	}
	if err := s.Checkpoint(10, nil); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s = openWS(t, dir)
	if _, prefix := s.Archived(); len(prefix) != 10 {
		t.Fatalf("reopened log replayed %d entries at or below the mark, want 10", len(prefix))
	}
	for i := 31; i <= 40; i++ {
		s.Append([]Entry{{Index: uint64(i), Data: []byte(fmt.Sprintf("e%d", i))}})
	}
	if err := s.Checkpoint(25, nil); err != nil {
		t.Fatal(err)
	}
	check := func(what string, s *WALStorage) {
		t.Helper()
		base, entries := s.Log()
		if base != 25 {
			t.Fatalf("%s: base %d, want 25", what, base)
		}
		if len(entries) != 15 {
			t.Fatalf("%s: %d live entries, want 15 (26..40)", what, len(entries))
		}
		for i, e := range entries {
			if e.Index != 26+uint64(i) || string(e.Data) != fmt.Sprintf("e%d", e.Index) {
				t.Fatalf("%s: live entry %d = (%d, %q)", what, i, e.Index, e.Data)
			}
		}
	}
	check("after Checkpoint(25)", s)
	if _, prefix := s.Archived(); len(prefix) != 0 {
		t.Fatalf("%d replayed entries kept past the checkpoint", len(prefix))
	}
	s.Close()
	s = openWS(t, dir)
	defer s.Close()
	check("reopened", s)
}

func TestWALStorageCheckpointKeepsTail(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenWALStorage(dir, wal.Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 20; i++ {
		s.Append([]Entry{{Index: uint64(i), Data: []byte("padpadpadpad")}})
	}
	// Nothing applied: checkpoint must not drop any entry's segment.
	if err := s.Checkpoint(0, nil); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2 := openWS(t, dir)
	defer s2.Close()
	if got := len(live(s2)); got != 20 {
		t.Fatalf("checkpoint(0) lost entries: %d remain", got)
	}
}

func TestWALStorageAppliedMark(t *testing.T) {
	dir := t.TempDir()
	s := openWS(t, dir)
	if got, _ := s.Log(); got != 0 {
		t.Fatalf("fresh mark = %d", got)
	}
	for i := 1; i <= 10; i++ {
		s.Append([]Entry{{Index: uint64(i), Data: []byte("d")}})
	}
	if err := s.Checkpoint(7, nil); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Log(); got != 7 {
		t.Fatalf("mark after checkpoint = %d", got)
	}
	// Lower checkpoint never regresses the mark.
	if err := s.Checkpoint(3, nil); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Log(); got != 7 {
		t.Fatalf("mark regressed to %d", got)
	}
	s.Close()
	// Mark survives restart.
	s2 := openWS(t, dir)
	defer s2.Close()
	if got, _ := s2.Log(); got != 7 {
		t.Fatalf("recovered mark = %d", got)
	}
}

// TestOneNodeRestartAppliesRecoveredLog: a node restarted from its WAL
// commits and applies the entries it recovered with no new proposal,
// before NewNode returns.
func TestOneNodeRestartAppliesRecoveredLog(t *testing.T) {
	dir := t.TempDir()
	start := func(sm *recordingSM) (*Node, *WALStorage) {
		ws := openWS(t, dir)
		n, err := NewNode(Config{SM: sm, Storage: ws})
		if err != nil {
			t.Fatal(err)
		}
		return n, ws
	}
	n, ws := start(&recordingSM{})
	for i := 0; i < 3; i++ {
		if err := n.Propose([]byte(fmt.Sprintf("e%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	n.Stop()
	ws.Close()

	sm := &recordingSM{}
	n, ws = start(sm)
	defer ws.Close()
	defer n.Stop()
	if got := sm.count(); got != 3 {
		t.Fatalf("restarted node applied %d of 3 recovered entries", got)
	}
	if got := n.Committed(); got != 3 {
		t.Fatalf("restarted node's commit index %d, want 3", got)
	}
}

// TestCheckpointedRestartAcceptsNewAppends is the regression test for
// the compaction data-loss bug: a log restarted from a checkpointed WAL
// used to rebuild an empty log starting at index 1, so every new
// proposal landed at an index at or below the durable applied mark and
// was silently skipped by the state machine. With base-index support,
// the restarted log resumes above the mark.
func TestCheckpointedRestartAcceptsNewAppends(t *testing.T) {
	dir := t.TempDir()
	open := func(sm *recordingSM) (*Node, *WALStorage) {
		ws, err := OpenWALStorage(dir, wal.Options{SegmentBytes: 256})
		if err != nil {
			t.Fatal(err)
		}
		n, err := NewNode(Config{SM: sm, Storage: ws})
		if err != nil {
			t.Fatal(err)
		}
		return n, ws
	}
	sm := &recordingSM{}
	n, ws := open(sm)
	for i := 0; i < 30; i++ {
		if err := n.Propose([]byte(fmt.Sprintf("pad-entry-%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "all applied before checkpoint", func() bool { return sm.count() == 30 })
	// Checkpoint at the applied horizon, as the worker's drain does
	// after archiving.
	applied := sm.entries()
	mark := applied[len(applied)-1].Index
	if err := ws.Checkpoint(mark, nil); err != nil {
		t.Fatal(err)
	}
	n.Stop()
	ws.Close()

	// Restart from the compacted WAL with a fresh state machine that
	// skips nothing: the log itself must hand it only new data.
	sm2 := &recordingSM{}
	n2, ws2 := open(sm2)
	defer ws2.Close()
	defer n2.Stop()
	for i := 0; i < 5; i++ {
		if err := n2.Propose([]byte(fmt.Sprintf("post-restart-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "post-restart entries applied", func() bool { return sm2.count() == 5 })
	// The new entries must live above the durable applied mark — that
	// is exactly what the old code violated.
	for _, e := range sm2.entries() {
		if e.Index <= mark {
			t.Fatalf("applied new entry at index %d <= applied mark %d", e.Index, mark)
		}
	}
}

// TestWALStorageReplayDropsGap: a WAL whose entry records skip an index
// replays to the contiguous run before the gap, with or without an
// applied mark, so a slice position always agrees with its index.
func TestWALStorageReplayDropsGap(t *testing.T) {
	entries := func(indexes ...uint64) []Entry {
		var out []Entry
		for _, i := range indexes {
			out = append(out, Entry{Index: i, Data: []byte(fmt.Sprintf("e%d", i))})
		}
		return out
	}
	for _, tc := range []struct {
		name     string
		mark     uint64
		appended []uint64
		want     []uint64
	}{
		{"no mark", 0, []uint64{1, 2, 4, 5}, []uint64{1, 2}},
		{"no mark, gap at the start", 0, []uint64{2, 3}, nil},
		{"past the mark", 2, []uint64{1, 2, 3, 5, 6}, []uint64{3}},
		{"hole at the mark", 2, []uint64{1, 2, 4, 5}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := openWS(t, dir)
			s.Append(entries(tc.appended...))
			if tc.mark > 0 {
				if err := s.Checkpoint(tc.mark, nil); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			s2 := openWS(t, dir)
			defer s2.Close()
			var got []uint64
			for _, e := range live(s2) {
				got = append(got, e.Index)
			}
			if fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Fatalf("replayed entries %v, want %v", got, tc.want)
			}
			if base, _ := s2.Log(); base != tc.mark {
				t.Fatalf("base %d, want %d", base, tc.mark)
			}
		})
	}
}
