package raft

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"logstore/internal/wal"
)

// advanceUntil drives a ManualClock one step at a time until cond holds,
// failing the test after maxSteps. The tiny sleep between steps only
// yields the scheduler so run loops consume their tick before the next
// one lands (a 1-buffered tick channel coalesces otherwise); correctness
// never depends on its duration — the bound is in logical steps.
func advanceUntil(t *testing.T, clk *ManualClock, what string, maxSteps int, cond func() bool) int {
	t.Helper()
	for s := 1; s <= maxSteps; s++ {
		clk.Advance(1)
		time.Sleep(200 * time.Microsecond)
		if cond() {
			return s
		}
	}
	t.Fatalf("%s: condition not reached within %d clock steps", what, maxSteps)
	return 0
}

// newManualGroup starts three nodes on one ManualClock and a
// LocalNetwork seeded with netSeed, stopped when the test ends. Time is
// frozen until the clock is advanced. findLeader returns a node that
// believes it leads, other than skip (None skips nobody), or nil.
func newManualGroup(t *testing.T, netSeed int64) (clk *ManualClock, net *LocalNetwork, sms map[NodeID]*recordingSM, findLeader func(skip NodeID) *Node) {
	t.Helper()
	clk = NewManualClock(time.Millisecond)
	net = NewLocalNetwork(netSeed)
	peers := []NodeID{0, 1, 2}
	sms = make(map[NodeID]*recordingSM)
	nodes := make(map[NodeID]*Node)
	for _, id := range peers {
		sms[id] = &recordingSM{}
		n, err := NewNode(Config{
			ID: id, Peers: peers, Transport: net.Transport(id),
			SM: sms[id], Clock: clk,
			TickInterval: time.Millisecond, ElectionTicks: 10,
			Seed: int64(id),
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[id] = n
		net.Register(n)
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.Stop()
		}
	})
	findLeader = func(skip NodeID) *Node {
		for id, n := range nodes {
			if id != skip && n.IsLeader() {
				return n
			}
		}
		return nil
	}
	return clk, net, sms, findLeader
}

// TestDeterministicLeaderKillFailover is the bounded-failover guarantee:
// under a manual clock, killing the leader elects a successor within a
// fixed number of logical ticks (a function of the seeded election
// timeouts only) and Propose succeeds again with no manual intervention.
func TestDeterministicLeaderKillFailover(t *testing.T) {
	clk, _, sms, findLeader := newManualGroup(t, 99)
	// Time is frozen until Advance: the first election needs
	// ElectionTicks..2*ElectionTicks steps for the fastest timeout plus
	// round trips; 10x that is a comfortable deterministic bound.
	advanceUntil(t, clk, "initial election", 20*10, func() bool { return findLeader(None) != nil })
	leader := findLeader(None)

	// Replication needs no ticks (appends flow on propose/response
	// events), so proposals commit with the clock frozen.
	if err := leader.Propose([]byte("before-kill")); err != nil {
		t.Fatalf("propose on initial leader: %v", err)
	}

	// Kill the leader outright (process death, not a partition).
	killed := leader.cfg.ID
	leader.Stop()

	steps := advanceUntil(t, clk, "failover election", 20*10, func() bool { return findLeader(killed) != nil })
	t.Logf("failover completed in %d logical ticks", steps)

	next := findLeader(killed)
	if err := next.Propose([]byte("after-kill")); err != nil {
		t.Fatalf("propose on new leader: %v", err)
	}
	// Followers learn the advanced commit index from the next heartbeat,
	// which takes clock ticks.
	advanceUntil(t, clk, "survivors apply both entries", 100, func() bool {
		for id, sm := range sms {
			if id != killed && sm.count() < 2 {
				return false
			}
		}
		return true
	})
}

// TestDisconnectReconnectMidElection heals a partition while the
// resulting election is still in flight: the group must converge on a
// single leader whose log accepts proposals.
func TestDisconnectReconnectMidElection(t *testing.T) {
	c := newCluster(t, 3)
	for i := 0; i < 3; i++ {
		c.propose(fmt.Sprintf("pre-%d", i))
	}
	old := c.waitLeader()
	oldID := old.cfg.ID
	c.net.Disconnect(oldID)
	// Reconnect as soon as any survivor starts campaigning — mid-election,
	// before the new leader is necessarily established.
	waitFor(t, "a survivor campaigns", func() bool {
		for id, n := range c.nodes {
			if id == oldID {
				continue
			}
			s := n.Status()
			if s.State == StateCandidate || (s.State == StateLeader && s.Term > old.Status().Term) {
				return true
			}
		}
		return false
	})
	c.net.Reconnect(oldID)

	c.propose("post-heal")
	waitFor(t, "all nodes converge on 4 entries", func() bool {
		for _, sm := range c.sms {
			if sm.count() < 4 {
				return false
			}
		}
		return true
	})
	// Settled: exactly one leader at the highest term.
	waitFor(t, "single leader", func() bool {
		leaders := 0
		for _, n := range c.nodes {
			if n.IsLeader() {
				leaders++
			}
		}
		return leaders == 1
	})
}

// TestAsymmetricPartitionLeaderStepsDown cuts only the follower->leader
// direction: the leader's heartbeats still reach the followers, but it
// hears no responses. Without check-quorum this wedges the group (the
// followers never time out, the deaf leader never commits); with it the
// leader steps down and a follower takes over.
func TestAsymmetricPartitionLeaderStepsDown(t *testing.T) {
	c := newCluster(t, 3)
	leader := c.waitLeader()
	leadID := leader.cfg.ID
	for _, id := range c.peers {
		if id != leadID {
			c.net.BlockLink(id, leadID)
		}
	}
	// The deaf leader must abdicate rather than hold the term forever.
	waitFor(t, "deaf leader steps down", func() bool {
		return leader.Status().State != StateLeader
	})
	newLeader := c.waitLeader(leadID)
	if newLeader.cfg.ID == leadID {
		t.Fatal("deaf leader re-elected while still deaf")
	}
	// The new leader's writes commit (it can reach a majority: itself,
	// the other follower, and one-way into the old leader).
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := newLeader.Propose([]byte("asym")); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("propose never committed under asymmetric partition")
		}
		newLeader = c.waitLeader(leadID)
	}
	// Heal; the old leader rejoins and applies the entry.
	for _, id := range c.peers {
		c.net.HealLink(id, leadID)
	}
	waitFor(t, "old leader catches up", func() bool {
		return c.sms[leadID].count() >= 1
	})
}

// TestHealAllClearsPartitionsAndLoss verifies the chaos driver's "heal
// everything" primitive: cutoffs, one-way blocks, and message loss all
// clear in one call.
func TestHealAllClearsPartitionsAndLoss(t *testing.T) {
	c := newCluster(t, 3)
	c.waitLeader()
	c.net.SetDropRate(0.2)
	c.net.Disconnect(0)
	c.net.BlockLink(1, 2)
	c.net.HealAll()
	for i := 0; i < 5; i++ {
		c.propose(fmt.Sprintf("healed-%d", i))
	}
	waitFor(t, "all nodes converge after HealAll", func() bool {
		for _, sm := range c.sms {
			if sm.count() < 5 {
				return false
			}
		}
		return true
	})
}

// TestCheckpointedRestartAcceptsNewAppends is the regression test for
// the compaction data-loss bug: a group restarted from checkpointed
// WALs used to rebuild an empty log starting at index 1, so every new
// proposal landed at an index at or below the durable applied mark and
// was silently skipped by the state machine. With base-index support,
// the restarted log resumes above the mark.
func TestCheckpointedRestartAcceptsNewAppends(t *testing.T) {
	dirs := []string{t.TempDir(), t.TempDir(), t.TempDir()}
	peers := []NodeID{0, 1, 2}
	openAll := func(net *LocalNetwork, sms map[NodeID]*recordingSM) (map[NodeID]*Node, map[NodeID]*WALStorage) {
		nodes := make(map[NodeID]*Node)
		stores := make(map[NodeID]*WALStorage)
		for _, id := range peers {
			ws, err := OpenWALStorage(dirs[id], wal.Options{SegmentBytes: 256})
			if err != nil {
				t.Fatal(err)
			}
			n, err := NewNode(Config{
				ID: id, Peers: peers, Transport: net.Transport(id),
				SM: sms[id], Storage: ws,
				TickInterval: 2 * time.Millisecond, Seed: int64(id),
			})
			if err != nil {
				t.Fatal(err)
			}
			nodes[id] = n
			stores[id] = ws
			net.Register(n)
		}
		return nodes, stores
	}
	proposeOn := func(nodes map[NodeID]*Node, data string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			for _, n := range nodes {
				if !n.IsLeader() {
					continue
				}
				if err := n.Propose([]byte(data)); err == nil {
					return
				} else if !errors.Is(err, ErrNotLeader) && !errors.Is(err, ErrStopped) {
					t.Fatalf("propose: %v", err)
				}
			}
			time.Sleep(2 * time.Millisecond)
		}
		t.Fatal("propose never succeeded")
	}

	sms := make(map[NodeID]*recordingSM)
	for _, id := range peers {
		sms[id] = &recordingSM{}
	}
	net := NewLocalNetwork(5)
	nodes, stores := openAll(net, sms)
	for i := 0; i < 30; i++ {
		proposeOn(nodes, fmt.Sprintf("pad-entry-%04d", i))
	}
	waitFor(t, "all applied before checkpoint", func() bool {
		for _, sm := range sms {
			if sm.count() < 30 {
				return false
			}
		}
		return true
	})
	// Checkpoint every replica at its own applied horizon, as the
	// worker's drain does after archiving.
	var mark uint64
	for _, id := range peers {
		applied := sms[id].entries()
		m := applied[len(applied)-1].Index
		if err := stores[id].Checkpoint(m); err != nil {
			t.Fatal(err)
		}
		if m > mark {
			mark = m
		}
	}
	for _, n := range nodes {
		n.Stop()
	}
	for _, s := range stores {
		s.Close()
	}

	// Full-group restart from the compacted WALs, with fresh SMs that
	// skip nothing: the raft layer itself must hand them only new data.
	sms2 := make(map[NodeID]*recordingSM)
	for _, id := range peers {
		sms2[id] = &recordingSM{}
	}
	net2 := NewLocalNetwork(6)
	nodes2, stores2 := openAll(net2, sms2)
	defer func() {
		for _, n := range nodes2 {
			n.Stop()
		}
		for _, s := range stores2 {
			s.Close()
		}
	}()
	for i := 0; i < 5; i++ {
		proposeOn(nodes2, fmt.Sprintf("post-restart-%d", i))
	}
	waitFor(t, "post-restart entries applied", func() bool {
		for _, sm := range sms2 {
			if sm.count() < 5 {
				return false
			}
		}
		return true
	})
	// The new entries must live above the durable applied mark — that
	// is exactly what the old code violated.
	for id, sm := range sms2 {
		for _, e := range sm.entries() {
			if e.Index <= mark {
				t.Fatalf("node %d applied new entry at index %d <= applied mark %d", id, e.Index, mark)
			}
		}
	}
}

// TestLaggingFollowerFastForwardsPastCompaction restarts one follower
// from a checkpointed WAL while the rest of the group keeps running and
// appending: the leader cannot replay the compacted prefix, so it must
// fast-forward the follower to its base and stream only the tail.
func TestLaggingFollowerFastForwardsPastCompaction(t *testing.T) {
	dirs := []string{t.TempDir(), t.TempDir(), t.TempDir()}
	peers := []NodeID{0, 1, 2}
	net := NewLocalNetwork(11)
	sms := make(map[NodeID]*recordingSM)
	nodes := make(map[NodeID]*Node)
	stores := make(map[NodeID]*WALStorage)
	start := func(id NodeID) {
		ws, err := OpenWALStorage(dirs[id], wal.Options{SegmentBytes: 256})
		if err != nil {
			t.Fatal(err)
		}
		n, err := NewNode(Config{
			ID: id, Peers: peers, Transport: net.Transport(id),
			SM: sms[id], Storage: ws,
			TickInterval: 2 * time.Millisecond, Seed: int64(id),
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[id] = n
		stores[id] = ws
		net.Register(n)
	}
	for _, id := range peers {
		sms[id] = &recordingSM{}
		start(id)
	}
	defer func() {
		for _, n := range nodes {
			n.Stop()
		}
		for _, s := range stores {
			s.Close()
		}
	}()
	propose := func(data string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			for _, n := range nodes {
				if n.IsLeader() {
					if err := n.Propose([]byte(data)); err == nil {
						return
					}
				}
			}
			time.Sleep(2 * time.Millisecond)
		}
		t.Fatal("propose never succeeded")
	}

	for i := 0; i < 30; i++ {
		propose(fmt.Sprintf("entry-%04d", i))
	}
	waitFor(t, "group applies 30", func() bool {
		for _, sm := range sms {
			if sm.count() < 30 {
				return false
			}
		}
		return true
	})

	// Kill a follower, checkpoint it at its applied horizon (as the
	// worker's archive path does), and restart it alone: it comes back
	// with base = mark and an empty-or-short live log.
	var victim NodeID = None
	for _, id := range peers {
		if !nodes[id].IsLeader() {
			victim = id
			break
		}
	}
	applied := sms[victim].entries()
	mark := applied[len(applied)-1].Index
	nodes[victim].Stop()
	if err := stores[victim].Checkpoint(mark); err != nil {
		t.Fatal(err)
	}
	stores[victim].Close()

	// The survivors keep committing while the victim is down.
	for i := 0; i < 10; i++ {
		propose(fmt.Sprintf("while-down-%d", i))
	}

	sms[victim] = &recordingSM{}
	start(victim)
	waitFor(t, "restarted follower receives the tail", func() bool {
		return sms[victim].count() >= 10
	})
	for _, e := range sms[victim].entries() {
		if e.Index <= mark {
			t.Fatalf("follower re-applied compacted entry %d (mark %d)", e.Index, mark)
		}
	}
}

// TestPendingProposalsFailOnceAtStepDown pins what ProposeAsync promises
// a caller that holds several proposals at once: each resolves exactly
// once. Under a manual clock, proposals acked before a partition stay
// acked; proposals the cut-off leader still holds when check-quorum
// steps it down fail with ErrNotLeader, once each; none of them is ever
// applied anywhere; and a proposal sent to the deposed node afterwards
// is refused the same way.
func TestPendingProposalsFailOnceAtStepDown(t *testing.T) {
	clk, net, sms, findLeader := newManualGroup(t, 7)
	advanceUntil(t, clk, "initial election", 20*10, func() bool { return findLeader(None) != nil })
	old := findLeader(None)

	const acked, doomed = 5, 7
	var pend []Pending
	propose := func(n *Node, tag string, count int) {
		for i := 0; i < count; i++ {
			p, err := n.ProposeAsync([]byte(fmt.Sprintf("%s-%d", tag, i)))
			if err != nil {
				t.Fatalf("propose %s-%d: %v", tag, i, err)
			}
			pend = append(pend, p)
		}
	}
	// Replication needs no ticks, so these commit with the clock frozen.
	propose(old, "acked", acked)
	for i, p := range pend {
		if err := p.Wait(); err != nil {
			t.Fatalf("acked-%d: %v", i, err)
		}
	}

	net.Disconnect(old.cfg.ID)
	propose(old, "doomed", doomed)
	// The cut-off leader appends them and waits for a quorum that cannot
	// answer; check-quorum deposes it after two election timeouts.
	advanceUntil(t, clk, "old leader steps down", 20*10, func() bool { return !old.IsLeader() })
	for i, p := range pend[acked:] {
		if err := p.Wait(); !errors.Is(err, ErrNotLeader) {
			t.Fatalf("doomed-%d: err = %v, want ErrNotLeader", i, err)
		}
	}
	late, err := old.ProposeAsync([]byte("late"))
	if err != nil {
		t.Fatal(err)
	}
	if err := late.Wait(); !errors.Is(err, ErrNotLeader) {
		t.Fatalf("proposal to the deposed node: err = %v, want ErrNotLeader", err)
	}

	// The majority side elects a successor; healed, the old leader's
	// uncommitted tail is truncated and everyone converges on the acked
	// entries plus one more.
	advanceUntil(t, clk, "successor elected", 20*10, func() bool { return findLeader(old.cfg.ID) != nil })
	net.Reconnect(old.cfg.ID)
	if err := findLeader(old.cfg.ID).Propose([]byte("after")); err != nil {
		t.Fatal(err)
	}
	advanceUntil(t, clk, "all apply the acked entries and the new one", 20*10, func() bool {
		for _, sm := range sms {
			if sm.count() < acked+1 {
				return false
			}
		}
		return true
	})
	clk.Advance(5 * 10) // nothing further may surface
	time.Sleep(5 * time.Millisecond)
	for id, sm := range sms {
		for _, e := range sm.entries() {
			if len(e.Data) >= 6 && string(e.Data[:6]) == "doomed" {
				t.Fatalf("node %d applied %q, which its proposer was told failed", id, e.Data)
			}
		}
		if sm.count() != acked+1 {
			t.Fatalf("node %d applied %d entries, want %d", id, sm.count(), acked+1)
		}
	}
	// Exactly once: every ack channel was written once and read once.
	for i, p := range append(pend, late) {
		if len(p.done) != 0 {
			t.Fatalf("proposal %d resolved twice", i)
		}
	}
}
