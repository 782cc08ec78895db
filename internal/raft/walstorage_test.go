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

func TestWALStorageStateRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openWS(t, dir)
	if term := s.Term(); term != 0 {
		t.Fatalf("fresh term = %d", term)
	}
	s.SetTerm(5)
	s.SetTerm(7)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openWS(t, dir)
	if term := s2.Term(); term != 7 {
		t.Fatalf("recovered term = %d", term)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	// A state record of the node that ran elections carries a vote
	// after the term: it replays to its term.
	appendRaw(t, dir, record(walTagState, 9, 2))
	s3 := openWS(t, dir)
	defer s3.Close()
	if term := s3.Term(); term != 9 {
		t.Fatalf("term after an older state record = %d, want 9", term)
	}
}

func TestWALStorageEntriesSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	s := openWS(t, dir)
	var ents []Entry
	for i := 1; i <= 50; i++ {
		ents = append(ents, Entry{Term: 1, Index: uint64(i), Data: []byte(fmt.Sprintf("e%d", i))})
	}
	s.Append(ents)
	s.SetTerm(3)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openWS(t, dir)
	defer s2.Close()
	got := s2.Entries()
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
		{Term: 1, Index: 1, Data: []byte("a")},
		{Term: 1, Index: 2, Data: []byte("b")},
		{Term: 1, Index: 3, Data: []byte("c")},
	})
	s.Close()
	appendRaw(t, dir, record(walTagTruncate, 2))
	s = openWS(t, dir)
	if got := s.Entries(); len(got) != 1 {
		t.Fatalf("%d entries survive a truncation at 2", len(got))
	}
	// Conflicting entries replaced at the same indexes.
	s.Append([]Entry{
		{Term: 2, Index: 2, Data: []byte("b2")},
		{Term: 2, Index: 3, Data: []byte("c2")},
	})
	s.Close()

	s2 := openWS(t, dir)
	defer s2.Close()
	got := s2.Entries()
	if len(got) != 3 {
		t.Fatalf("entries = %d", len(got))
	}
	if got[1].Term != 2 || string(got[1].Data) != "b2" {
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
	s.SetTerm(4)
	for i := 1; i <= 100; i++ {
		s.Append([]Entry{{Term: 4, Index: uint64(i), Data: []byte(fmt.Sprintf("entry-%03d", i))}})
	}
	if err := s.Checkpoint(90); err != nil {
		t.Fatal(err)
	}
	// In-memory view unchanged.
	if got := len(s.Entries()); got != 100 {
		t.Fatalf("in-memory entries = %d", got)
	}
	s.Close()

	// After restart the log is rebased at the applied mark: the live
	// log resumes at 91 above base (90, term 4), the term survives, and
	// the compacted prefix stays readable for dedup preloading. (The
	// old behaviour — discarding the whole log — made a restarted
	// group restart indexing at 1 underneath the durable applied mark,
	// silently dropping freshly acked rows.)
	s2 := openWS(t, dir)
	defer s2.Close()
	if term := s2.Term(); term != 4 {
		t.Fatalf("term after checkpoint restart = %d", term)
	}
	if base, baseTerm := s2.Base(); base != 90 || baseTerm != 4 {
		t.Fatalf("base after checkpoint restart = (%d, %d), want (90, 4)", base, baseTerm)
	}
	got := s2.Entries()
	if len(got) != 10 || got[0].Index != 91 || got[9].Index != 100 {
		t.Fatalf("live log after restart = %d entries (first %v)", len(got), got)
	}
	for _, e := range s2.ReplayedPrefix() {
		if e.Index > 90 {
			t.Fatalf("prefix holds live entry %d", e.Index)
		}
	}
}

func TestWALStorageCheckpointKeepsTail(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenWALStorage(dir, wal.Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 20; i++ {
		s.Append([]Entry{{Term: 1, Index: uint64(i), Data: []byte("padpadpadpad")}})
	}
	// Nothing applied: checkpoint must not drop any entry's segment.
	if err := s.Checkpoint(0); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2 := openWS(t, dir)
	defer s2.Close()
	if got := len(s2.Entries()); got != 20 {
		t.Fatalf("checkpoint(0) lost entries: %d remain", got)
	}
}

func TestWALStorageAppliedMark(t *testing.T) {
	dir := t.TempDir()
	s := openWS(t, dir)
	if got := s.AppliedMark(); got != 0 {
		t.Fatalf("fresh mark = %d", got)
	}
	for i := 1; i <= 10; i++ {
		s.Append([]Entry{{Term: 1, Index: uint64(i), Data: []byte("d")}})
	}
	if err := s.Checkpoint(7); err != nil {
		t.Fatal(err)
	}
	if got := s.AppliedMark(); got != 7 {
		t.Fatalf("mark after checkpoint = %d", got)
	}
	// Lower checkpoint never regresses the mark.
	if err := s.Checkpoint(3); err != nil {
		t.Fatal(err)
	}
	if got := s.AppliedMark(); got != 7 {
		t.Fatalf("mark regressed to %d", got)
	}
	s.Close()
	// Mark survives restart.
	s2 := openWS(t, dir)
	defer s2.Close()
	if got := s2.AppliedMark(); got != 7 {
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
	if err := ws.Checkpoint(mark); err != nil {
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
			out = append(out, Entry{Term: 1, Index: i, Data: []byte(fmt.Sprintf("e%d", i))})
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
				if err := s.Checkpoint(tc.mark); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			s2 := openWS(t, dir)
			defer s2.Close()
			var got []uint64
			for _, e := range s2.Entries() {
				got = append(got, e.Index)
			}
			if fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Fatalf("replayed entries %v, want %v", got, tc.want)
			}
			if base, _ := s2.Base(); base != tc.mark {
				t.Fatalf("base %d, want %d", base, tc.mark)
			}
		})
	}
}
