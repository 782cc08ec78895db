package raft

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// cluster is a test harness around a raft group on a LocalNetwork.
type cluster struct {
	t     *testing.T
	net   *LocalNetwork
	nodes map[NodeID]*Node
	sms   map[NodeID]*recordingSM
	store map[NodeID]*MemoryStorage
	peers []NodeID
}

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

func newCluster(t *testing.T, n int) *cluster {
	t.Helper()
	c := &cluster{
		t:     t,
		net:   NewLocalNetwork(1),
		nodes: make(map[NodeID]*Node),
		sms:   make(map[NodeID]*recordingSM),
		store: make(map[NodeID]*MemoryStorage),
	}
	for i := 0; i < n; i++ {
		c.peers = append(c.peers, NodeID(i))
	}
	for _, id := range c.peers {
		c.startNode(id)
	}
	t.Cleanup(c.stopAll)
	return c
}

func (c *cluster) startNode(id NodeID) {
	sm, ok := c.sms[id]
	if !ok {
		sm = &recordingSM{}
		c.sms[id] = sm
	}
	st, ok := c.store[id]
	if !ok {
		st = NewMemoryStorage()
		c.store[id] = st
	}
	node, err := NewNode(Config{
		ID:            id,
		Peers:         c.peers,
		Transport:     c.net.Transport(id),
		SM:            sm,
		Storage:       st,
		TickInterval:  2 * time.Millisecond,
		ElectionTicks: 10,
		Seed:          int64(id) + 42,
	})
	if err != nil {
		c.t.Fatal(err)
	}
	c.nodes[id] = node
	c.net.Register(node)
}

func (c *cluster) stopAll() {
	for _, n := range c.nodes {
		n.Stop()
	}
}

// waitLeader blocks until exactly one reachable node is leader.
func (c *cluster) waitLeader(exclude ...NodeID) *Node {
	c.t.Helper()
	skip := map[NodeID]bool{}
	for _, id := range exclude {
		skip[id] = true
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for id, n := range c.nodes {
			if skip[id] {
				continue
			}
			if n.IsLeader() {
				return n
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	c.t.Fatal("no leader elected within deadline")
	return nil
}

func (c *cluster) propose(data string) {
	c.t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		leader := c.waitLeader()
		err := leader.Propose([]byte(data))
		if err == nil {
			return
		}
		if errors.Is(err, ErrNotLeader) {
			continue // election churn; retry on the new leader
		}
		c.t.Fatalf("propose: %v", err)
	}
	c.t.Fatal("propose never succeeded")
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

func TestElectSingleLeader(t *testing.T) {
	c := newCluster(t, 3)
	leader := c.waitLeader()
	// Exactly one leader at its term.
	time.Sleep(50 * time.Millisecond)
	term := leader.Status().Term
	leaders := 0
	for _, n := range c.nodes {
		s := n.Status()
		if s.State == StateLeader && s.Term == term {
			leaders++
		}
	}
	if leaders != 1 {
		t.Fatalf("%d leaders at term %d", leaders, term)
	}
}

func TestProposeCommitApply(t *testing.T) {
	c := newCluster(t, 3)
	for i := 0; i < 20; i++ {
		c.propose(fmt.Sprintf("entry-%d", i))
	}
	waitFor(t, "all nodes applied 20 entries", func() bool {
		for _, sm := range c.sms {
			if sm.count() < 20 {
				return false
			}
		}
		return true
	})
	// Every state machine applied the same sequence, in order, with
	// strictly increasing indexes (leadership no-ops are not applied,
	// so indexes may skip).
	ref := c.sms[0].entries()
	for id, sm := range c.sms {
		got := sm.entries()
		if len(got) != len(ref) {
			t.Fatalf("node %d applied %d entries, node 0 applied %d", id, len(got), len(ref))
		}
		prev := uint64(0)
		for i := range ref {
			if got[i].Index != ref[i].Index || string(got[i].Data) != string(ref[i].Data) {
				t.Fatalf("node %d entry %d = (%d, %q), want (%d, %q)",
					id, i, got[i].Index, got[i].Data, ref[i].Index, ref[i].Data)
			}
			if got[i].Index <= prev {
				t.Fatalf("node %d applied out of order at %d", id, i)
			}
			prev = got[i].Index
		}
	}
}

func TestProposeToFollowerFails(t *testing.T) {
	c := newCluster(t, 3)
	leader := c.waitLeader()
	for id, n := range c.nodes {
		if id == leader.cfg.ID {
			continue
		}
		if err := n.Propose([]byte("x")); !errors.Is(err, ErrNotLeader) {
			t.Fatalf("follower %d Propose = %v, want ErrNotLeader", id, err)
		}
		break
	}
}

func TestFailoverElectsNewLeaderAndPreservesLog(t *testing.T) {
	c := newCluster(t, 3)
	for i := 0; i < 5; i++ {
		c.propose(fmt.Sprintf("pre-%d", i))
	}
	old := c.waitLeader()
	oldID := old.cfg.ID
	c.net.Disconnect(oldID)

	newLeader := c.waitLeader(oldID)
	if newLeader.cfg.ID == oldID {
		t.Fatal("disconnected node still leader")
	}
	// The new leader must carry all committed entries and accept more.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if err := newLeader.Propose([]byte("post-failover")); err == nil {
			break
		}
		newLeader = c.waitLeader(oldID)
	}
	waitFor(t, "survivors apply 6 entries", func() bool {
		for id, sm := range c.sms {
			if id == oldID {
				continue
			}
			if sm.count() < 6 {
				return false
			}
		}
		return true
	})

	// Old leader rejoins and catches up.
	c.net.Reconnect(oldID)
	waitFor(t, "old leader catches up", func() bool {
		return c.sms[oldID].count() >= 6
	})
}

func TestMinorityPartitionCannotCommit(t *testing.T) {
	c := newCluster(t, 3)
	leader := c.waitLeader()
	id := leader.cfg.ID
	c.net.Disconnect(id)
	// Give the majority side time to elect a new leader.
	c.waitLeader(id)
	// The isolated old leader cannot commit: Propose must not return nil.
	errc := make(chan error, 1)
	go func() { errc <- leader.Propose([]byte("lost")) }()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("isolated leader committed a proposal")
		}
	case <-time.After(300 * time.Millisecond):
		// Blocked forever is acceptable too (never acked); reconnect to
		// let it resolve and the test finish.
		c.net.Reconnect(id)
		<-errc
	}
}

func TestRestartFromStorage(t *testing.T) {
	c := newCluster(t, 3)
	for i := 0; i < 10; i++ {
		c.propose(fmt.Sprintf("e%d", i))
	}
	waitFor(t, "all applied", func() bool {
		for _, sm := range c.sms {
			if sm.count() < 10 {
				return false
			}
		}
		return true
	})
	// Crash one node (keep its storage), restart it fresh.
	victim := NodeID(-1)
	for id, n := range c.nodes {
		if !n.IsLeader() {
			victim = id
			break
		}
	}
	c.nodes[victim].Stop()
	c.sms[victim] = &recordingSM{} // fresh SM: replays from the leader
	c.startNode(victim)
	for i := 10; i < 15; i++ {
		c.propose(fmt.Sprintf("e%d", i))
	}
	waitFor(t, "restarted node applies new entries", func() bool {
		return c.sms[victim].count() >= 5
	})
	// Restarted node must not have lost its persisted log: its storage
	// eventually holds all 15 entries (10 from before the crash, 5 new).
	waitFor(t, "restarted node's storage catches up", func() bool {
		return len(c.store[victim].Entries()) >= 15
	})
}

func TestLossyNetworkStillCommits(t *testing.T) {
	c := newCluster(t, 3)
	c.waitLeader()
	c.net.SetDropRate(0.2)
	for i := 0; i < 10; i++ {
		c.propose(fmt.Sprintf("lossy-%d", i))
	}
	c.net.SetDropRate(0)
	waitFor(t, "all nodes converge despite loss", func() bool {
		for _, sm := range c.sms {
			if sm.count() < 10 {
				return false
			}
		}
		return true
	})
}

func TestFiveNodeCluster(t *testing.T) {
	c := newCluster(t, 5)
	for i := 0; i < 10; i++ {
		c.propose(fmt.Sprintf("five-%d", i))
	}
	waitFor(t, "all five apply", func() bool {
		for _, sm := range c.sms {
			if sm.count() < 10 {
				return false
			}
		}
		return true
	})
}

func TestSyncQueueBackpressure(t *testing.T) {
	// Single-node group with a tiny sync_queue and an apply_queue of 1:
	// stall the apply side and flood proposals until BFC rejects.
	blocker := make(chan struct{})
	var applied atomic.Int64
	sm := StateMachineFunc(func(index uint64, data []byte) {
		applied.Add(1)
		<-blocker
	})
	net := NewLocalNetwork(7)
	node, err := NewNode(Config{
		ID:              0,
		Peers:           []NodeID{0},
		Transport:       net.Transport(0),
		SM:              sm,
		TickInterval:    time.Millisecond,
		SyncQueueItems:  4,
		ApplyQueueItems: 1,
		Seed:            1,
	})
	if err != nil {
		t.Fatal(err)
	}
	net.Register(node)
	defer func() {
		close(blocker)
		node.Stop()
	}()

	waitFor(t, "self-election", func() bool { return node.IsLeader() })

	// Saturate: with apply blocked, committed entries jam the apply
	// queue, the run loop stops draining the sync queue, and once its
	// four slots are taken a push bounces with ErrBackpressure — before
	// anything is replicated, and without the proposer waiting.
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
	if node.Status().SyncQueue.Rejected == 0 {
		t.Error("sync_queue rejection counter is zero")
	}
}

func TestEntryCodecRoundTrip(t *testing.T) {
	e := Entry{Term: 7, Index: 99, Data: []byte("payload")}
	raw := e.AppendTo(nil)
	got, n, err := DecodeEntry(raw)
	if err != nil || n != len(raw) {
		t.Fatalf("decode: %v (%d bytes)", err, n)
	}
	if got.Term != 7 || got.Index != 99 || string(got.Data) != "payload" {
		t.Fatalf("round trip = %+v", got)
	}
	for cut := 0; cut < len(raw); cut++ {
		if _, _, err := DecodeEntry(raw[:cut]); err == nil {
			t.Fatalf("truncation to %d accepted", cut)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	net := NewLocalNetwork(1)
	if _, err := NewNode(Config{ID: 0, Peers: []NodeID{0}}); err == nil {
		t.Error("nil transport accepted")
	}
	if _, err := NewNode(Config{ID: 0, Transport: net.Transport(0)}); err == nil {
		t.Error("empty peers accepted")
	}
	if _, err := NewNode(Config{ID: 9, Peers: []NodeID{0, 1}, Transport: net.Transport(9)}); err == nil {
		t.Error("self not in peers accepted")
	}
}

func TestMemoryStorage(t *testing.T) {
	s := NewMemoryStorage()
	term, vote := s.InitialState()
	if term != 0 || vote != None {
		t.Fatalf("initial state = %d, %d", term, vote)
	}
	s.SetState(3, 1)
	term, vote = s.InitialState()
	if term != 3 || vote != 1 {
		t.Fatalf("state = %d, %d", term, vote)
	}
	s.Append([]Entry{{Term: 1, Index: 1}, {Term: 1, Index: 2}, {Term: 2, Index: 3}})
	if got := len(s.Entries()); got != 3 {
		t.Fatalf("entries = %d", got)
	}
	s.TruncateFrom(2)
	if got := s.Entries(); len(got) != 1 || got[0].Index != 1 {
		t.Fatalf("after truncate: %+v", got)
	}
	s.TruncateFrom(99) // beyond end: no-op
	if len(s.Entries()) != 1 {
		t.Fatal("truncate beyond end changed log")
	}
}

func BenchmarkProposeThreeNodes(b *testing.B) {
	net := NewLocalNetwork(1)
	peers := []NodeID{0, 1, 2}
	var nodes []*Node
	for _, id := range peers {
		n, err := NewNode(Config{
			ID: id, Peers: peers, Transport: net.Transport(id),
			TickInterval: time.Millisecond, Seed: int64(id),
		})
		if err != nil {
			b.Fatal(err)
		}
		net.Register(n)
		nodes = append(nodes, n)
	}
	defer func() {
		for _, n := range nodes {
			n.Stop()
		}
	}()
	var leader *Node
	deadline := time.Now().Add(5 * time.Second)
	for leader == nil && time.Now().Before(deadline) {
		for _, n := range nodes {
			if n.IsLeader() {
				leader = n
			}
		}
		time.Sleep(time.Millisecond)
	}
	if leader == nil {
		b.Fatal("no leader")
	}
	payload := make([]byte, 128)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			for {
				if err := leader.Propose(payload); err == nil {
					break
				} else if errors.Is(err, ErrBackpressure) {
					time.Sleep(100 * time.Microsecond)
					continue
				} else {
					b.Error(err)
					return
				}
			}
		}
	})
}
