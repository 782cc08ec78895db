package raft

import (
	"fmt"
	"testing"
	"time"

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

func TestWALStorageStateRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openWS(t, dir)
	if term, vote := s.InitialState(); term != 0 || vote != None {
		t.Fatalf("fresh state = %d, %d", term, vote)
	}
	s.SetState(5, 2)
	s.SetState(7, None) // None must survive the +1 encoding
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openWS(t, dir)
	defer s2.Close()
	if term, vote := s2.InitialState(); term != 7 || vote != None {
		t.Fatalf("recovered state = %d, %d", term, vote)
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
	s.SetState(3, 1)
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

func TestWALStorageTruncateSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s := openWS(t, dir)
	s.Append([]Entry{
		{Term: 1, Index: 1, Data: []byte("a")},
		{Term: 1, Index: 2, Data: []byte("b")},
		{Term: 1, Index: 3, Data: []byte("c")},
	})
	s.TruncateFrom(2)
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
	s.SetState(4, 0)
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
	// log resumes at 91 above base (90, term 4), term/vote survive, and
	// the compacted prefix stays readable for dedup preloading. (The
	// old behaviour — discarding the whole log — made a restarted
	// group restart indexing at 1 underneath the durable applied mark,
	// silently dropping freshly acked rows.)
	s2 := openWS(t, dir)
	defer s2.Close()
	if term, vote := s2.InitialState(); term != 4 || vote != 0 {
		t.Fatalf("state after checkpoint restart = %d, %d", term, vote)
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

func TestRaftClusterOnWALStorage(t *testing.T) {
	// A 3-node group running on durable storage: commit entries, crash
	// a follower process (close its storage), restart it from disk,
	// and confirm it catches up.
	dirs := []string{t.TempDir(), t.TempDir(), t.TempDir()}
	net := NewLocalNetwork(3)
	peers := []NodeID{0, 1, 2}
	sms := make([]*recordingSM, 3)
	nodes := make([]*Node, 3)
	stores := make([]*WALStorage, 3)

	start := func(i int) {
		ws, err := OpenWALStorage(dirs[i], wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = ws
		if sms[i] == nil {
			sms[i] = &recordingSM{}
		}
		n, err := NewNode(Config{
			ID: NodeID(i), Peers: peers, Transport: net.Transport(NodeID(i)),
			SM: sms[i], Storage: ws,
			TickInterval: 2 * time.Millisecond, Seed: int64(i),
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
		net.Register(n)
	}
	for i := range peers {
		start(i)
	}
	defer func() {
		for _, n := range nodes {
			n.Stop()
		}
		for _, s := range stores {
			s.Close()
		}
	}()

	var leader *Node
	waitFor(t, "leader", func() bool {
		for _, n := range nodes {
			if n.IsLeader() {
				leader = n
				return true
			}
		}
		return false
	})
	for i := 0; i < 10; i++ {
		deadline := time.Now().Add(5 * time.Second)
		for {
			if err := leader.Propose([]byte(fmt.Sprintf("wal-%d", i))); err == nil {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("propose timeout")
			}
			for _, n := range nodes {
				if n.IsLeader() {
					leader = n
				}
			}
		}
	}

	// Crash a follower: stop node, close storage, reopen from disk.
	victim := -1
	for i, n := range nodes {
		if !n.IsLeader() {
			victim = i
			break
		}
	}
	nodes[victim].Stop()
	stores[victim].Close()
	sms[victim] = &recordingSM{}
	start(victim)

	waitFor(t, "restarted follower catches up", func() bool {
		return sms[victim].count() >= 10
	})
	// Its durable log holds all entries.
	if got := len(stores[victim].Entries()); got < 10 {
		t.Fatalf("durable log has %d entries", got)
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

// TestOneNodeRestartAppliesRecoveredLog: a one-node group restarted from
// its WAL commits and applies the entries it recovered with no new
// proposal. It is its own quorum, so no append response will ever come
// to advance the commit; electing itself has to.
func TestOneNodeRestartAppliesRecoveredLog(t *testing.T) {
	dir := t.TempDir()
	start := func(sm *recordingSM) (*Node, *WALStorage) {
		ws := openWS(t, dir)
		n, err := NewNode(Config{
			ID: 0, Peers: []NodeID{0}, Transport: NewLocalNetwork(1).Transport(0),
			SM: sm, Storage: ws, TickInterval: 2 * time.Millisecond, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return n, ws
	}
	n, ws := start(&recordingSM{})
	waitFor(t, "leader", n.IsLeader)
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
	deadline := time.Now().Add(500 * time.Millisecond)
	for sm.count() < 3 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if got := sm.count(); got != 3 {
		t.Fatalf("restarted one-node group applied %d of 3 recovered entries", got)
	}
}

// TestWALStorageReplayDropsGap: a WAL whose entry records skip an index
// replays to the contiguous run before the gap, with or without an
// applied mark, so a slice position always agrees with its index. The
// entries after the gap are the leader's to re-replicate.
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
