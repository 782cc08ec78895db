package raft

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

type recordingSM struct {
	mu      sync.Mutex
	applied []Entry
}

func (r *recordingSM) Apply(index uint64, data []byte) {
	r.mu.Lock()
	r.applied = append(r.applied, Entry{Index: index, Data: append([]byte(nil), data...)})
	r.mu.Unlock()
}

func (r *recordingSM) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.applied)
}

func (r *recordingSM) entries() []Entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Entry, len(r.applied))
	copy(out, r.applied)
	return out
}

// newNode starts a node on cfg and stops it when the test ends.
func newNode(t *testing.T, cfg Config) *Node {
	t.Helper()
	n, err := NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Stop)
	return n
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

func TestProposeCommitApply(t *testing.T) {
	sm := &recordingSM{}
	n := newNode(t, Config{SM: sm})
	for i := 0; i < 20; i++ {
		if err := n.Propose([]byte(fmt.Sprintf("entry-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "20 entries applied", func() bool { return sm.count() == 20 })
	// Every entry applied once, in proposal order, at consecutive
	// indexes from 1.
	for i, e := range sm.entries() {
		if e.Index != uint64(i+1) || string(e.Data) != fmt.Sprintf("entry-%d", i) {
			t.Fatalf("applied entry %d = (%d, %q)", i, e.Index, e.Data)
		}
	}
	if got := n.Committed(); got != 20 {
		t.Fatalf("commit index %d after 20 proposals", got)
	}
}

// TestRestartFromStorage: a node restarted on the reopened WAL of a
// stopped one resumes its log — the entries it held apply again to a
// fresh state machine, and new ones follow them in the next term.
func TestRestartFromStorage(t *testing.T) {
	dir := t.TempDir()
	st := openWS(t, dir)
	n, err := NewNode(Config{SM: &recordingSM{}, Storage: st})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := n.Propose([]byte(fmt.Sprintf("e%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	n.Stop()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st = openWS(t, dir)
	defer st.Close()
	sm := &recordingSM{}
	n = newNode(t, Config{SM: sm, Storage: st})
	if got := sm.count(); got != 10 {
		t.Fatalf("restarted node applied %d of 10 stored entries before NewNode returned", got)
	}
	for i := 10; i < 15; i++ {
		if err := n.Propose([]byte(fmt.Sprintf("e%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "15 entries applied", func() bool { return sm.count() == 15 })
	for i, e := range sm.entries() {
		if e.Index != uint64(i+1) || string(e.Data) != fmt.Sprintf("e%d", i) {
			t.Fatalf("applied entry %d = (%d, %q)", i, e.Index, e.Data)
		}
	}
	if _, got := st.Log(); len(got) != 15 || got[14].Index != 15 {
		t.Fatalf("stored log: %d entries, want 15", len(got))
	}
}

func TestSyncQueueBackpressure(t *testing.T) {
	// A tiny sync_queue and an apply_queue of 1: stall the apply side
	// and flood proposals until BFC rejects.
	blocker := make(chan struct{})
	sm := StateMachineFunc(func(index uint64, data []byte) { <-blocker })
	node, err := NewNode(Config{SM: sm, SyncQueueItems: 4, ApplyQueueItems: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		close(blocker)
		node.Stop()
	}()

	// Saturate: with apply blocked, committed entries jam the apply
	// queue, the log stops draining the sync queue, and once its four
	// slots are taken a push bounces with ErrBackpressure — before
	// anything is appended, and without the proposer waiting.
	rejected := false
	for i := 0; i < 100 && !rejected; i++ {
		_, err := node.ProposeAsync([]byte(fmt.Sprintf("flood-%d", i)))
		rejected = errors.Is(err, ErrBackpressure)
		if err != nil && !rejected {
			t.Fatalf("propose %d: %v", i, err)
		}
	}
	if !rejected {
		t.Fatal("BFC never rejected under a stalled apply path")
	}
	if node.SyncQueue().Rejected == 0 {
		t.Error("sync_queue rejection counter is zero")
	}
}

// TestParkedProposalsCommitOnApply: with the apply held, committed
// entries fill the apply_queue and proposals park in the sync_queue.
// Releasing the apply is all it takes for every parked proposal to
// commit and apply — the apply goroutine wakes the log, with no timer.
func TestParkedProposalsCommitOnApply(t *testing.T) {
	hold := make(chan struct{})
	var applied atomic.Int64
	sm := StateMachineFunc(func(uint64, []byte) {
		<-hold
		applied.Add(1)
	})
	n := newNode(t, Config{SM: sm, ApplyQueueItems: 2})
	// A commit does not wait for the apply, so four proposals ack: one
	// entry is in the held apply, two fill the apply_queue, and at
	// least one waits outside it, so nothing proposed after them is
	// drained.
	const committed, parked = 4, 20
	for i := 0; i < committed; i++ {
		if err := n.Propose([]byte(fmt.Sprintf("c%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	var pending []Pending
	for i := 0; i < parked; i++ {
		p, err := n.ProposeAsync([]byte(fmt.Sprintf("p%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		pending = append(pending, p)
	}
	if got, q := n.Committed(), n.SyncQueue(); got != committed || q.Len != parked {
		t.Fatalf("with the apply held: commit index %d, %d proposals in the sync_queue; want %d and %d",
			got, q.Len, committed, parked)
	}
	close(hold)
	acks := make(chan error, len(pending))
	for _, p := range pending {
		go func(p Pending) { acks <- p.Wait() }(p)
	}
	timeout := time.After(5 * time.Second)
	for i := range pending {
		select {
		case err := <-acks:
			if err != nil {
				t.Fatalf("parked proposal: %v", err)
			}
		case <-timeout:
			t.Fatalf("%d of %d parked proposals unacked 5 s after the apply was released", len(pending)-i, len(pending))
		}
	}
	waitFor(t, "every proposal applied", func() bool { return applied.Load() == committed+parked })
}

func TestEntryCodecRoundTrip(t *testing.T) {
	e := Entry{Index: 99, Data: []byte("payload")}
	raw := e.AppendTo(nil)
	// An older log wrote the entry's term where AppendTo writes 0.
	termed := append([]byte{7}, raw[1:]...)
	for _, in := range [][]byte{raw, termed} {
		got, n, err := DecodeEntry(in)
		if err != nil || n != len(in) {
			t.Fatalf("decode %x: %v (%d bytes)", in, err, n)
		}
		if got.Index != 99 || string(got.Data) != "payload" {
			t.Fatalf("round trip of %x = %+v", in, got)
		}
	}
	for cut := 0; cut < len(raw); cut++ {
		if _, _, err := DecodeEntry(raw[:cut]); err == nil {
			t.Fatalf("truncation to %d accepted", cut)
		}
	}
}
