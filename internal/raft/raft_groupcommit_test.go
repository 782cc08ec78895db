package raft

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countingSyncStorage wraps a WALStorage with a Sync counter that
// stands in for the WAL's own fsync, so the test audits the flushes. It also counts how many
// Append calls and how many total entries the node wrote, proving that
// a group drain produces one storage append for the whole run.
type countingSyncStorage struct {
	Storage
	syncs   atomic.Int64
	appends atomic.Int64
	entries atomic.Int64
}

// syncCost is what each Sync takes, as a device flush does. Group
// commit amortizes a flush that takes time: proposals arriving during
// one are drained by the next. A Sync that returned at once would let
// the log keep up with the writers one proposal at a time.
const syncCost = 200 * time.Microsecond

func (c *countingSyncStorage) Sync() error {
	c.syncs.Add(1)
	time.Sleep(syncCost)
	return nil
}

func (c *countingSyncStorage) Append(entries []Entry) {
	c.appends.Add(1)
	c.entries.Add(int64(len(entries)))
	c.Storage.Append(entries)
}

// TestGroupCommitAmortizesSyncs is the group-commit acceptance gate:
// with >= 8 concurrent proposers the node must issue strictly fewer
// Sync calls than it acks proposals (amortized < 1 fsync per ack), and
// every proposal must still commit and apply exactly once.
func TestGroupCommitAmortizesSyncs(t *testing.T) {
	const (
		writers    = 8
		perWriter  = 50
		totalProps = writers * perWriter
	)
	sm := &recordingSM{}
	cs := &countingSyncStorage{Storage: tempWS(t)}
	n := newNode(t, Config{SM: sm, Storage: cs})
	// The open's flush is not proposal traffic.
	baseSyncs := cs.syncs.Load()

	var wg sync.WaitGroup
	var acked atomic.Int64
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				data := []byte(fmt.Sprintf("w%d-%d", w, i))
				for {
					err := n.Propose(data)
					if err == nil {
						acked.Add(1)
						break
					}
					if !errors.Is(err, ErrBackpressure) {
						t.Errorf("propose: %v", err)
						return
					}
					time.Sleep(time.Millisecond) // backpressure: retry
				}
			}
		}()
	}
	wg.Wait()

	if got := acked.Load(); got != totalProps {
		t.Fatalf("acked %d proposals, want %d", got, totalProps)
	}
	syncs := cs.syncs.Load() - baseSyncs
	if syncs == 0 {
		t.Fatal("the node never synced its storage: group commit must still flush before commit")
	}
	if syncs >= totalProps {
		t.Fatalf("the node issued %d syncs for %d acked proposals: group commit must amortize to < 1 sync/ack",
			syncs, totalProps)
	}
	t.Logf("%d syncs for %d acked proposals (%.3f syncs/ack)", syncs, totalProps, float64(syncs)/float64(totalProps))

	// The group drain must not merge proposals into one entry: every
	// proposal applies individually, exactly once.
	waitFor(t, "every proposal applied", func() bool { return sm.count() >= totalProps })
	seen := make(map[string]int)
	for _, e := range sm.entries() {
		seen[string(e.Data)]++
	}
	if len(seen) != totalProps {
		t.Fatalf("applied %d distinct proposals, want %d", len(seen), totalProps)
	}
	for data, n := range seen {
		if n != 1 {
			t.Fatalf("proposal %q applied %d times", data, n)
		}
	}

	// And the storage-level grouping: strictly fewer Append calls than
	// entries written means multi-entry runs actually happened.
	la, le := cs.appends.Load(), cs.entries.Load()
	if la >= le {
		t.Errorf("storage: %d Append calls for %d entries — no grouping observed", la, le)
	}
	t.Logf("storage: %d Append calls for %d entries", la, le)
}

// TestAppliedIndexCoversCommit pins the flush-barrier invariant: the
// applied index converges to Committed. A commit ack fires before the
// state machine sees the entry, so "committed but not yet applied" is a
// real window — FlushShard and every append's ack barrier on exactly
// this pair.
func TestAppliedIndexCoversCommit(t *testing.T) {
	n := newNode(t, Config{SM: &recordingSM{}})
	for i := 0; i < 20; i++ {
		if err := n.Propose([]byte(fmt.Sprintf("entry-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if got := n.Committed(); got != 20 {
		t.Fatalf("commit index %d after 20 acked proposals", got)
	}
	waitFor(t, "applied index meets the commit index", func() bool { return n.applied.Load() == n.Committed() })
}

// TestWaitApplied: WaitApplied returns once the node has applied the
// index, reports an ended context, and fails with ErrStopped once the
// node stops rather than waiting for an apply that cannot come.
func TestWaitApplied(t *testing.T) {
	sm := &recordingSM{}
	n := newNode(t, Config{SM: sm})
	if err := n.Propose([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := n.WaitApplied(context.Background(), n.Committed()); err != nil {
		t.Fatal(err)
	}
	if got := sm.count(); got != 1 {
		t.Fatalf("applied %d entries after WaitApplied, want 1", got)
	}
	beyond := n.Committed() + 1
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := n.WaitApplied(ctx, beyond); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("WaitApplied past the log = %v, want DeadlineExceeded", err)
	}
	go n.Stop()
	if err := n.WaitApplied(context.Background(), beyond); !errors.Is(err, ErrStopped) {
		t.Fatalf("WaitApplied on a stopped node = %v, want ErrStopped", err)
	}
}

// flakySyncStorage is a WALStorage whose Sync fails while failing is
// set: a disk that takes writes and then cannot flush them.
type flakySyncStorage struct {
	Storage
	failing atomic.Bool
}

var errSyncFailed = errors.New("injected fsync failure")

func (s *flakySyncStorage) Sync() error {
	if s.failing.Load() {
		return errSyncFailed
	}
	return nil
}

// TestFailedSyncIsNeverAcked: a run whose Sync failed fails its
// proposals with the Sync error and commits nothing, and so does every
// later run until a flush succeeds. The flush that succeeds commits the
// failed runs' entries with its own: they were in the log all along.
// The one-node log is the leader case; followers no longer exist.
func TestFailedSyncIsNeverAcked(t *testing.T) {
	t.Run("leader", func(t *testing.T) {
		sm := &recordingSM{}
		st := &flakySyncStorage{Storage: tempWS(t)}
		n := newNode(t, Config{SM: sm, Storage: st})
		st.failing.Store(true)
		for i := 0; i < 3; i++ {
			if err := n.Propose([]byte(fmt.Sprintf("lost-%d", i))); !errors.Is(err, errSyncFailed) {
				t.Fatalf("Propose %d after a failed Sync = %v, want %v", i, err, errSyncFailed)
			}
		}
		time.Sleep(20 * time.Millisecond)
		if ci := n.Committed(); ci != 0 || sm.count() != 0 {
			t.Fatalf("commit index %d, %d applied: an unflushed entry committed", ci, sm.count())
		}
		st.failing.Store(false)
		if err := n.Propose([]byte("flushed")); err != nil {
			t.Fatal(err)
		}
		if ci := n.Committed(); ci != 4 {
			t.Fatalf("commit index %d after the flush, want 4", ci)
		}
		waitFor(t, "the four entries applied", func() bool { return sm.count() == 4 })
	})
}
