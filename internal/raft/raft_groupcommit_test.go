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

// countingSyncStorage wraps a Storage with a Sync counter, standing in
// for a WAL whose fsyncs we want to audit. It also counts how many
// Append calls and how many total entries the node wrote, proving that
// a group drain produces one storage append for the whole run.
type countingSyncStorage struct {
	Storage
	syncs   atomic.Int64
	appends atomic.Int64
	entries atomic.Int64
}

func (c *countingSyncStorage) Sync() error {
	c.syncs.Add(1)
	return nil
}

func (c *countingSyncStorage) Append(entries []Entry) {
	c.appends.Add(1)
	c.entries.Add(int64(len(entries)))
	c.Storage.Append(entries)
}

// TestGroupCommitAmortizesSyncs is the group-commit acceptance gate:
// with >= 8 concurrent proposers the leader must issue strictly fewer
// Sync calls than it acks proposals (amortized < 1 fsync per ack), and
// every proposal must still commit and apply exactly once, in order.
func TestGroupCommitAmortizesSyncs(t *testing.T) {
	const (
		writers    = 8
		perWriter  = 50
		totalProps = writers * perWriter
	)
	c := &cluster{
		t:     t,
		net:   NewLocalNetwork(1),
		nodes: make(map[NodeID]*Node),
		sms:   make(map[NodeID]*recordingSM),
		store: make(map[NodeID]*MemoryStorage),
	}
	counters := make(map[NodeID]*countingSyncStorage)
	for i := 0; i < 3; i++ {
		c.peers = append(c.peers, NodeID(i))
	}
	for _, id := range c.peers {
		sm := &recordingSM{}
		c.sms[id] = sm
		cs := &countingSyncStorage{Storage: NewMemoryStorage()}
		counters[id] = cs
		node, err := NewNode(Config{
			ID:            id,
			Peers:         c.peers,
			Transport:     c.net.Transport(id),
			SM:            sm,
			Storage:       cs,
			TickInterval:  2 * time.Millisecond,
			ElectionTicks: 10,
			Seed:          int64(id) + 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		c.nodes[id] = node
		c.net.Register(node)
	}
	t.Cleanup(c.stopAll)

	leader := c.waitLeader()
	lid := leader.Status().ID

	// Snapshot the election-time counts so the measurement covers only
	// the proposal traffic.
	baseSyncs := counters[lid].syncs.Load()

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
					err := leader.Propose(data)
					if err == nil {
						acked.Add(1)
						break
					}
					if err == ErrNotLeader || err == ErrStopped {
						t.Errorf("leadership moved during steady-state test: %v", err)
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
	leaderSyncs := counters[lid].syncs.Load() - baseSyncs
	if leaderSyncs == 0 {
		t.Fatal("leader never synced its storage: group commit must still flush before quorum")
	}
	if leaderSyncs >= totalProps {
		t.Fatalf("leader issued %d syncs for %d acked proposals: group commit must amortize to < 1 sync/ack",
			leaderSyncs, totalProps)
	}
	t.Logf("leader: %d syncs for %d acked proposals (%.3f syncs/ack)",
		leaderSyncs, totalProps, float64(leaderSyncs)/float64(totalProps))

	// Followers batch too: each AppendEntries run is one storage append
	// and one Sync, so their sync counts stay below the proposal count.
	for id, cs := range counters {
		if id == lid {
			continue
		}
		if s := cs.syncs.Load(); s >= totalProps {
			t.Errorf("follower %d issued %d syncs for %d proposals", id, s, totalProps)
		}
	}

	// The group drain must not merge proposals into one entry: every
	// proposal applies individually, exactly once, in proposal order
	// per writer.
	waitApplied(t, c.sms[lid], totalProps)
	seen := make(map[string]int)
	for _, e := range c.sms[lid].entries() {
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
	la, le := counters[lid].appends.Load(), counters[lid].entries.Load()
	if la >= le {
		t.Errorf("leader storage: %d Append calls for %d entries — no grouping observed", la, le)
	}
	t.Logf("leader storage: %d Append calls for %d entries", la, le)
}

func waitApplied(t *testing.T, sm *recordingSM, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		// The no-op leadership entry is skipped on apply, so the count
		// converges to exactly the proposal total.
		if sm.count() >= want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("applied %d entries, want %d", sm.count(), want)
}

// TestAppliedIndexCoversCommit pins the flush-barrier invariant: every
// replica's applied index converges to its CommitIndex, with leadership
// no-ops (empty Data, never handed to the SM) covered too. A commit ack
// fires before the state machine sees the entry, so "committed but not
// yet applied" is a real window — FlushShard barriers on exactly this
// pair, and a skipped no-op index would park that barrier forever
// behind any fresh leader's term-opening entry.
func TestAppliedIndexCoversCommit(t *testing.T) {
	c := newCluster(t, 3)
	defer c.stopAll()
	c.waitLeader()
	for i := 0; i < 20; i++ {
		c.propose(fmt.Sprintf("entry-%d", i))
	}
	// 20 proposals + the leader's no-op: commit reaches at least 21 on
	// the leader immediately, on followers via subsequent traffic.
	deadline := time.Now().Add(5 * time.Second)
	for {
		lagging := ""
		for id, n := range c.nodes {
			st := n.Status()
			if st.CommitIndex < 21 || n.applied.Load() < st.CommitIndex {
				lagging = fmt.Sprintf("node %d: commit=%d applied=%d", id, st.CommitIndex, n.applied.Load())
			}
		}
		if lagging == "" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("applied index never met commit index: %s", lagging)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestWaitApplied: WaitApplied returns once the node has applied the
// index, reports an ended context, and fails with ErrStopped once the
// node stops rather than waiting for an apply that cannot come.
func TestWaitApplied(t *testing.T) {
	c := newCluster(t, 1)
	n := c.waitLeader()
	if err := n.Propose([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := n.WaitApplied(context.Background(), n.Status().CommitIndex); err != nil {
		t.Fatal(err)
	}
	if got := c.sms[0].count(); got != 1 {
		t.Fatalf("applied %d entries after WaitApplied, want 1", got)
	}
	beyond := n.Status().CommitIndex + 1
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

// failingSyncStorage is a Storage whose every Sync fails: a disk that
// takes writes and then cannot flush them.
type failingSyncStorage struct {
	Storage
}

var errSyncFailed = errors.New("injected fsync failure")

func (failingSyncStorage) Sync() error { return errSyncFailed }

// TestFailedSyncIsNeverAcked: an entry whose Sync failed does not count
// toward quorum on the node that failed it. A one-node group's leader
// fails the proposal with the Sync error and commits nothing; in a
// three-node group whose two followers cannot flush, the healthy
// leader commits nothing either, because no follower answers Success.
func TestFailedSyncIsNeverAcked(t *testing.T) {
	t.Run("leader", func(t *testing.T) {
		sm := &recordingSM{}
		node, err := NewNode(Config{
			ID: 0, Peers: []NodeID{0}, Transport: NewLocalNetwork(1).Transport(0),
			SM: sm, Storage: failingSyncStorage{NewMemoryStorage()},
			TickInterval: 2 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer node.Stop()
		waitFor(t, "self-election", node.IsLeader)
		if err := node.Propose([]byte("x")); !errors.Is(err, errSyncFailed) {
			t.Fatalf("Propose after a failed Sync = %v, want %v", err, errSyncFailed)
		}
		time.Sleep(20 * time.Millisecond)
		if st := node.Status(); st.CommitIndex != 0 || sm.count() != 0 {
			t.Fatalf("commit index %d, %d applied: an unflushed entry committed", st.CommitIndex, sm.count())
		}
	})
	t.Run("followers", func(t *testing.T) {
		net := NewLocalNetwork(1)
		peers := []NodeID{0, 1, 2}
		var nodes []*Node
		for _, id := range peers {
			var st Storage = NewMemoryStorage()
			if id != 0 {
				st = failingSyncStorage{st}
			}
			n, err := NewNode(Config{
				ID: id, Peers: peers, Transport: net.Transport(id), SM: &recordingSM{},
				Storage: st, TickInterval: 2 * time.Millisecond, ElectionTicks: 10,
				// Node 0 times out first and so is the healthy leader.
				Seed: int64(id) * 1000,
			})
			if err != nil {
				t.Fatal(err)
			}
			net.Register(n)
			nodes = append(nodes, n)
			defer n.Stop()
		}
		var leader *Node
		waitFor(t, "a leader", func() bool {
			for _, n := range nodes {
				if n.IsLeader() {
					leader = n
					return true
				}
			}
			return false
		})
		p, err := leader.ProposeAsync([]byte("x"))
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- p.Wait() }()
		select {
		case err := <-done:
			if err == nil {
				t.Fatal("proposal acked with no follower able to flush it")
			}
		case <-time.After(100 * time.Millisecond):
		}
		for _, n := range nodes {
			if ci := n.Status().CommitIndex; ci != 0 {
				t.Fatalf("node %d commit index %d: an unflushed entry committed", n.Status().ID, ci)
			}
		}
	})
}
