package raft

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"logstore/internal/backpressure"
)

// Errors surfaced to proposers.
var (
	// ErrNotLeader is returned when proposing to a non-leader or when
	// leadership is lost before commit.
	ErrNotLeader = errors.New("raft: not the leader")
	// ErrStopped is returned when the node shuts down mid-proposal.
	ErrStopped = errors.New("raft: node stopped")
	// ErrBackpressure re-exports the BFC rejection for convenience.
	ErrBackpressure = backpressure.ErrBackpressure
)

// Config configures a raft node.
type Config struct {
	ID        NodeID
	Peers     []NodeID // all group members, including ID
	Transport Transport
	SM        StateMachine
	Storage   Storage // nil = fresh MemoryStorage

	// TickInterval is the wall-clock duration of one logical tick
	// (0 = 10ms). Elections need ElectionTicks..2*ElectionTicks ticks
	// of silence; leaders heartbeat every HeartbeatTicks.
	TickInterval   time.Duration
	ElectionTicks  int // 0 = 10
	HeartbeatTicks int // 0 = 2

	// Clock supplies tick and deadline timers (nil = WallClock).
	// Failover tests pass a ManualClock so election timing is
	// deterministic.
	Clock Clock

	// BFC limits (paper §4.2): sync_queue bounds pending proposals,
	// apply_queue bounds committed-but-unapplied entries. Zero values
	// select defaults (4096 items / 64 MiB each).
	SyncQueueItems  int
	SyncQueueBytes  int64
	ApplyQueueItems int
	ApplyQueueBytes int64

	// Seed randomizes election timeouts deterministically.
	Seed int64

	// CommitHook, when set, observes every entry this node commits, in
	// index order, before the proposer is acked. The WAL shipper hangs
	// off it: an ack therefore implies the shipper has been offered the
	// entry. Called from the run goroutine — must not block.
	CommitHook func([]Entry)
}

type proposal struct {
	data []byte
	done chan error
}

type pendingAck struct {
	index uint64
	done  chan error
}

// Node is one raft group member. All protocol state is owned by the run
// goroutine; external callers interact through Propose, Step, Status,
// and Stop.
type Node struct {
	cfg Config

	inbox   chan Message
	syncQ   *backpressure.Queue // *proposal
	applyQ  *backpressure.Queue // Entry
	propNtf chan struct{}
	stopc   chan struct{}
	donec   chan struct{}
	applyWG sync.WaitGroup

	// Protocol state (run goroutine only).
	state  StateType
	term   uint64
	vote   NodeID
	leader NodeID
	// log holds entries above base: log[i].Index == base+i+1. base is
	// the compaction point restored from Storage — entries at or below
	// it were applied and archived before a checkpoint, so they are no
	// longer replayable from this node (followers that far behind are
	// fast-forwarded instead; see sendAppend).
	log          []Entry
	base         uint64
	baseTerm     uint64
	commitIndex  uint64
	votesWon     map[NodeID]bool
	nextIndex    map[NodeID]uint64
	matchIndex   map[NodeID]uint64
	pending      []pendingAck
	stalledApply []Entry // committed entries awaiting apply_queue space

	elapsed       int
	electionLimit int
	rng           *rand.Rand

	// Check-quorum state: a leader that cannot hear a majority for a
	// full election timeout steps down, so a partitioned stale leader
	// fails proposals with ErrNotLeader instead of holding them forever.
	quorumElapsed int
	recentActive  map[NodeID]bool

	// syncer is the Storage's optional durability hook (nil when the
	// Storage needs no explicit flush). One Sync covers a whole
	// group-committed run of entries.
	syncer Syncer
	// unsynced is set while the last Sync failed: entries this node
	// already holds may not be durable, so even an append that adds
	// nothing must flush again before it is answered with Success.
	unsynced bool
	// drainBuf is the reusable scratch for group-draining the
	// sync_queue (run goroutine only).
	drainBuf []any

	// applied is the highest log index the apply loop has finished
	// with (state-machine entries after SM.Apply returns, leadership
	// no-ops as they pass through the queue). Commit acks fire before
	// apply — WaitApplied lets callers barrier on the gap.
	applied atomic.Uint64
	// appliedCh is WaitApplied's signal: a waiter installs a channel,
	// the next advance of applied swaps it out and closes it. With no
	// waiter it stays nil, so the apply loop never allocates for it.
	appliedCh atomic.Pointer[chan struct{}]

	// Status snapshot, updated by the run goroutine.
	statusMu sync.Mutex
	status   Status
}

// Status is an observable snapshot of a node.
type Status struct {
	ID          NodeID
	State       StateType
	Term        uint64
	Leader      NodeID
	CommitIndex uint64
	LastIndex   uint64
	SyncQueue   backpressure.Snapshot
	ApplyQueue  backpressure.Snapshot
}

// NewNode constructs and starts a node.
func NewNode(cfg Config) (*Node, error) {
	if cfg.Transport == nil {
		return nil, fmt.Errorf("raft: nil transport")
	}
	if len(cfg.Peers) == 0 {
		return nil, fmt.Errorf("raft: empty peer set")
	}
	found := false
	for _, p := range cfg.Peers {
		if p == cfg.ID {
			found = true
		}
	}
	if !found {
		return nil, fmt.Errorf("raft: node %d not in peer set %v", cfg.ID, cfg.Peers)
	}
	if cfg.TickInterval <= 0 {
		cfg.TickInterval = 10 * time.Millisecond
	}
	if cfg.ElectionTicks <= 0 {
		cfg.ElectionTicks = 10
	}
	if cfg.HeartbeatTicks <= 0 {
		cfg.HeartbeatTicks = 2
	}
	if cfg.SyncQueueItems <= 0 {
		cfg.SyncQueueItems = 4096
	}
	if cfg.SyncQueueBytes <= 0 {
		cfg.SyncQueueBytes = 64 << 20
	}
	if cfg.ApplyQueueItems <= 0 {
		cfg.ApplyQueueItems = 4096
	}
	if cfg.ApplyQueueBytes <= 0 {
		cfg.ApplyQueueBytes = 64 << 20
	}
	if cfg.Storage == nil {
		cfg.Storage = NewMemoryStorage()
	}
	if cfg.Clock == nil {
		cfg.Clock = WallClock{}
	}

	n := &Node{
		cfg:     cfg,
		inbox:   make(chan Message, 4096),
		syncQ:   backpressure.NewQueue(fmt.Sprintf("raft-%d-sync", cfg.ID), cfg.SyncQueueItems, cfg.SyncQueueBytes),
		applyQ:  backpressure.NewQueue(fmt.Sprintf("raft-%d-apply", cfg.ID), cfg.ApplyQueueItems, cfg.ApplyQueueBytes),
		propNtf: make(chan struct{}, 1),
		stopc:   make(chan struct{}),
		donec:   make(chan struct{}),
		vote:    None,
		leader:  None,
		rng:     rand.New(rand.NewSource(cfg.Seed + int64(cfg.ID)*7919)),
	}
	n.syncer, _ = cfg.Storage.(Syncer)
	n.term, n.vote = cfg.Storage.InitialState()
	n.base, n.baseTerm = cfg.Storage.Base()
	n.log = cfg.Storage.Entries()
	// Everything at or below the base already committed (that is what
	// authorized the compaction), so a restarted node must not report a
	// commit index behind it.
	n.commitIndex = n.base
	n.applied.Store(n.base)
	n.resetElectionTimer()
	if len(cfg.Peers) == 1 {
		// A node that is its whole peer set has nobody to hear from: it
		// leads from the start, and commits the log it recovered, so a
		// proposal made as soon as it returns finds a leader.
		n.startElection()
	}
	n.updateStatus()

	n.applyWG.Add(1)
	go n.applyLoop()
	go n.run()
	return n, nil
}

// Stop shuts the node down and waits for its goroutines.
func (n *Node) Stop() {
	select {
	case <-n.stopc:
		return // already stopping
	default:
	}
	close(n.stopc)
	<-n.donec
	n.applyQ.Close()
	n.applyWG.Wait()
}

// Step injects a message from the transport.
func (n *Node) Step(msg Message) {
	select {
	case n.inbox <- msg:
	case <-n.stopc:
	default:
		// Inbox overflow: drop. Raft tolerates lossy delivery.
	}
}

// Pending is a proposal the sync_queue has accepted: Wait reports what
// became of it.
type Pending struct {
	done  <-chan error
	stopc <-chan struct{}
}

// Wait blocks until the proposal commits (nil), is rejected because the
// node is not, or no longer, the leader (ErrNotLeader), or the node
// shuts down (ErrStopped). After either error the proposal may still
// have committed — the outcome is ambiguous, as in any distributed
// write.
func (p Pending) Wait() error {
	select {
	case err := <-p.done:
		return err
	case <-p.stopc:
		return ErrStopped
	}
}

// ProposeAsync queues data for replication and returns without waiting
// for the commit. The BFC sync_queue rejects immediately with
// ErrBackpressure when full — that rejection is the paper's signal to
// the client to slow down. Everything queued when the run loop next
// drains is group-committed: one entry run, one Sync, one fan-out.
func (n *Node) ProposeAsync(data []byte) (Pending, error) {
	p := &proposal{data: data, done: make(chan error, 1)}
	if err := n.syncQ.Push(p, int64(len(data))); err != nil {
		return Pending{}, err
	}
	select {
	case n.propNtf <- struct{}{}:
	default:
	}
	return Pending{done: p.done, stopc: n.stopc}, nil
}

// Propose is ProposeAsync followed by Wait.
func (n *Node) Propose(data []byte) error {
	p, err := n.ProposeAsync(data)
	if err != nil {
		return err
	}
	return p.Wait()
}

// Status returns the latest snapshot.
func (n *Node) Status() Status {
	n.statusMu.Lock()
	defer n.statusMu.Unlock()
	s := n.status
	s.SyncQueue = n.syncQ.Snapshot()
	s.ApplyQueue = n.applyQ.Snapshot()
	return s
}

// IsLeader reports whether the node currently believes it leads.
func (n *Node) IsLeader() bool { return n.Status().State == StateLeader }

func (n *Node) updateStatus() {
	n.statusMu.Lock()
	n.status = Status{
		ID:          n.cfg.ID,
		State:       n.state,
		Term:        n.term,
		Leader:      n.leader,
		CommitIndex: n.commitIndex,
		LastIndex:   n.lastIndex(),
	}
	n.statusMu.Unlock()
}

// ---- run loop ----

func (n *Node) run() {
	defer close(n.donec)
	ticker := n.cfg.Clock.NewTicker(n.cfg.TickInterval)
	defer ticker.Stop()
	for {
		select {
		case <-n.stopc:
			n.failPending(ErrStopped)
			return
		case msg := <-n.inbox:
			n.handle(msg)
		case <-ticker.Chan():
			n.tick()
		case <-n.propNtf:
			n.drainProposals()
		}
		n.updateStatus()
	}
}

func (n *Node) applyLoop() {
	defer n.applyWG.Done()
	for {
		v, ok := n.applyQ.Pop()
		if !ok {
			return
		}
		e := v.(Entry)
		// Leadership no-ops carry no data but still flow through the
		// queue so the applied index advances in log order.
		if len(e.Data) > 0 && n.cfg.SM != nil {
			n.cfg.SM.Apply(e.Index, e.Data)
		}
		n.advanceApplied(e.Index)
	}
}

// advanceApplied moves the applied index monotonically forward — an
// installBase fast-forward can race the apply loop's stores.
func (n *Node) advanceApplied(to uint64) {
	for cur := n.applied.Load(); to > cur; cur = n.applied.Load() {
		if n.applied.CompareAndSwap(cur, to) {
			if ch := n.appliedCh.Swap(nil); ch != nil {
				close(*ch)
			}
			return
		}
	}
}

// WaitApplied blocks until this node has finished applying index. A
// proposal ack only proves commit; the state machine sees the entry
// asynchronously, so callers that need read-your-writes against this
// replica wait for the leader's commit index here. It returns ctx's
// error if ctx ends first, and ErrStopped if the node stops first
// (entries still queued then may never apply here).
func (n *Node) WaitApplied(ctx context.Context, index uint64) error {
	for n.applied.Load() < index {
		ch := n.appliedCh.Load()
		if ch == nil {
			c := make(chan struct{})
			if !n.appliedCh.CompareAndSwap(nil, &c) {
				continue
			}
			ch = &c
		}
		// Checked again once ch is installed: an advance that raced the
		// installation is seen here, any later one closes ch.
		if n.applied.Load() >= index {
			return nil
		}
		select {
		case <-*ch:
		case <-ctx.Done():
			return ctx.Err()
		case <-n.stopc:
			return ErrStopped
		}
	}
	return nil
}

func (n *Node) resetElectionTimer() {
	n.elapsed = 0
	n.electionLimit = n.cfg.ElectionTicks + n.rng.Intn(n.cfg.ElectionTicks)
}

func (n *Node) tick() {
	// Retry entries stalled on a full apply_queue before anything else:
	// this is the BFC propagation point (apply pressure blocks commits
	// from reaching the state machine, and ultimately stalls the
	// sync_queue drain below).
	n.flushStalledApply()
	// Once the apply side recovered, resume draining proposals parked
	// in the sync_queue — without this, proposers who enqueued while
	// apply was congested would wait for a new Propose to re-trigger
	// the drain and could block forever.
	if n.state == StateLeader && len(n.stalledApply) == 0 && n.syncQ.Len() > 0 {
		n.drainProposals()
	}

	n.elapsed++
	switch n.state {
	case StateLeader:
		if n.checkQuorum() {
			return // stepped down: the follower path runs next tick
		}
		if n.elapsed >= n.cfg.HeartbeatTicks {
			n.elapsed = 0
			n.broadcastAppend()
		}
	default:
		if n.elapsed >= n.electionLimit {
			n.startElection()
		}
	}
}

// checkQuorum steps a leader down when it has not heard from a majority
// for two election timeouts. Without this, a leader partitioned away
// from its followers keeps accepting proposals that can never commit;
// with it, those proposals fail fast with ErrNotLeader and the caller
// retries against the new leader on the majority side. Returns true if
// the node stepped down.
func (n *Node) checkQuorum() bool {
	n.quorumElapsed++
	if n.quorumElapsed < 2*n.cfg.ElectionTicks {
		return false
	}
	active := 0
	for _, p := range n.cfg.Peers {
		if p == n.cfg.ID || n.recentActive[p] {
			active++
		}
	}
	n.quorumElapsed = 0
	n.recentActive = make(map[NodeID]bool)
	if active*2 > len(n.cfg.Peers) {
		return false
	}
	n.becomeFollower(n.term, None)
	return true
}

// drainProposals group-commits the sync_queue: the entire backlog is
// taken in one atomic drain, appended to the log (and the WAL) as one
// consecutive run of entries, made durable with a single Sync, and
// replicated in one AppendEntries fan-out. Each proposal stays its own
// entry — content-address dedup identity is per proposal — only the
// durability and replication round-trips are amortized across the
// group. Every proposal's done channel is acked individually after
// quorum (ackPending).
func (n *Node) drainProposals() {
	if n.state != StateLeader {
		// Reject everything queued: only leaders replicate.
		buf := n.syncQ.DrainAll(n.drainBuf[:0])
		for i, v := range buf {
			v.(*proposal).done <- ErrNotLeader
			buf[i] = nil
		}
		n.drainBuf = buf[:0]
		return
	}
	// BFC: while the apply side is congested, leave proposals in the
	// sync_queue so it fills and rejects new writes upstream.
	if len(n.stalledApply) > 0 {
		return
	}
	buf := n.syncQ.DrainAll(n.drainBuf[:0])
	if len(buf) == 0 {
		return
	}
	entries := make([]Entry, len(buf))
	next := n.lastIndex() + 1
	for i, v := range buf {
		p := v.(*proposal)
		entries[i] = Entry{Term: n.term, Index: next + uint64(i), Data: p.data}
		n.pending = append(n.pending, pendingAck{index: entries[i].Index, done: p.done})
		buf[i] = nil
	}
	n.drainBuf = buf[:0]
	n.appendEntries(entries...)
	// One fsync covers the whole run: only after it may the group count
	// toward quorum on this node. A failed one fails the run's
	// proposals; the entries stay in the log, so followers may still
	// commit them, and the error's outcome is as ambiguous as
	// ErrNotLeader's.
	if err := n.syncStorage(); err != nil {
		first := len(n.pending) - len(entries)
		for _, p := range n.pending[first:] {
			p.done <- err
		}
		n.pending = n.pending[:first]
	} else {
		n.matchIndex[n.cfg.ID] = n.lastIndex()
	}
	n.broadcastAppend()
	n.maybeCommit()
}

// syncStorage flushes the storage when it buffers (WAL-backed). Until
// it returns nil, nothing appended since the last successful flush may
// count toward quorum on this node.
func (n *Node) syncStorage() error {
	if n.syncer == nil {
		return nil
	}
	err := n.syncer.Sync()
	n.unsynced = err != nil
	return err
}

// ---- log helpers ----

func (n *Node) lastIndex() uint64 { return n.base + uint64(len(n.log)) }

func (n *Node) termAt(index uint64) uint64 {
	if index == n.base {
		return n.baseTerm
	}
	if index < n.base || index > n.lastIndex() {
		return 0
	}
	return n.log[index-n.base-1].Term
}

func (n *Node) entriesFrom(index uint64, limit int) []Entry {
	if index <= n.base || index > n.lastIndex() {
		return nil
	}
	out := n.log[index-n.base-1:]
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	cp := make([]Entry, len(out))
	copy(cp, out)
	return cp
}

func (n *Node) appendEntries(entries ...Entry) {
	n.log = append(n.log, entries...)
	n.cfg.Storage.Append(entries)
}

func (n *Node) truncateFrom(index uint64) {
	if index <= n.base {
		return // the compacted prefix is committed; it cannot conflict
	}
	if index <= n.lastIndex() {
		n.log = n.log[:index-n.base-1]
		n.cfg.Storage.TruncateFrom(index)
	}
}

// installBase fast-forwards a follower whose log cannot be repaired by
// entry replay: the leader compacted everything at or below `index`
// after archiving it, so the follower discards its log and adopts the
// compaction point. The rows behind it are durable in object storage —
// this is the snapshot-by-reference that replaces InstallSnapshot in a
// system whose state machine archives to OSS.
func (n *Node) installBase(index, term uint64) {
	if index <= n.base {
		return
	}
	if n.lastIndex() > n.base {
		// Durably drop everything replayable: these entries are either
		// duplicates of archived data or uncommitted divergence.
		n.truncateFrom(n.base + 1)
	}
	n.log = nil
	n.base = index
	n.baseTerm = term
	n.cfg.Storage.SetBase(index, term)
	if n.commitIndex < index {
		n.commitIndex = index
	}
	// Entries at or below the new base can never be replayed to the SM
	// from this node; the applied index must not wait for them.
	n.advanceApplied(index)
}

func (n *Node) persistState() {
	n.cfg.Storage.SetState(n.term, n.vote)
}

// ---- elections ----

func (n *Node) startElection() {
	n.state = StateCandidate
	n.term++
	n.vote = n.cfg.ID
	n.leader = None
	n.persistState()
	n.votesWon = map[NodeID]bool{n.cfg.ID: true}
	n.resetElectionTimer()
	if n.tallyVotes() {
		n.becomeLeader()
		return
	}
	for _, p := range n.cfg.Peers {
		if p == n.cfg.ID {
			continue
		}
		n.cfg.Transport.Send(Message{
			Type:         MsgVoteRequest,
			From:         n.cfg.ID,
			To:           p,
			Term:         n.term,
			LastLogIndex: n.lastIndex(),
			LastLogTerm:  n.termAt(n.lastIndex()),
		})
	}
}

func (n *Node) tallyVotes() bool {
	granted := 0
	for _, ok := range n.votesWon {
		if ok {
			granted++
		}
	}
	return granted*2 > len(n.cfg.Peers)
}

func (n *Node) becomeLeader() {
	n.state = StateLeader
	n.leader = n.cfg.ID
	n.quorumElapsed = 0
	n.recentActive = make(map[NodeID]bool)
	n.nextIndex = make(map[NodeID]uint64, len(n.cfg.Peers))
	n.matchIndex = make(map[NodeID]uint64, len(n.cfg.Peers))
	for _, p := range n.cfg.Peers {
		n.nextIndex[p] = n.lastIndex() + 1
		n.matchIndex[p] = 0
	}
	// Append a no-op entry for the new term: Raft's commit rule only
	// counts replicas for current-term entries, so without this a
	// quiet leader would never commit (and apply) entries carried over
	// from previous terms — e.g. after a full-cluster restart. No-op
	// entries (empty Data) are skipped on the apply path.
	n.appendEntries(Entry{Term: n.term, Index: n.lastIndex() + 1})
	if n.syncStorage() == nil {
		n.matchIndex[n.cfg.ID] = n.lastIndex()
	}
	n.elapsed = 0
	n.broadcastAppend()
	// A leader that is its own quorum commits the no-op — and the log it
	// recovered — here: no append response will ever arrive to do it.
	n.maybeCommit()
	// Proposals may be waiting from before we won.
	n.drainProposals()
}

func (n *Node) becomeFollower(term uint64, leader NodeID) {
	stateChanged := n.state != StateFollower || term != n.term
	n.state = StateFollower
	if term > n.term {
		n.term = term
		n.vote = None
		n.persistState()
	}
	n.leader = leader
	if stateChanged {
		n.resetElectionTimer()
		n.failPending(ErrNotLeader)
	}
}

func (n *Node) failPending(err error) {
	for _, p := range n.pending {
		p.done <- err
	}
	n.pending = nil
	// Also bounce queued-but-undrained proposals.
	buf := n.syncQ.DrainAll(n.drainBuf[:0])
	for i, v := range buf {
		v.(*proposal).done <- err
		buf[i] = nil
	}
	n.drainBuf = buf[:0]
}

// ---- replication ----

const maxEntriesPerAppend = 512

func (n *Node) broadcastAppend() {
	for _, p := range n.cfg.Peers {
		if p == n.cfg.ID {
			continue
		}
		n.sendAppend(p)
	}
}

func (n *Node) sendAppend(to NodeID) {
	next := n.nextIndex[to]
	if next == 0 {
		next = 1
	}
	snapshot := false
	if next <= n.base {
		// The follower needs entries we compacted away. Fast-forward it
		// to the base: everything behind it is archived in OSS, so the
		// follower can adopt the compaction point instead of replaying.
		next = n.base + 1
		n.nextIndex[to] = next
		snapshot = true
	}
	prev := next - 1
	if prev == n.base && n.base > 0 {
		// Mark base-anchored appends so a follower whose log diverges at
		// the base installs it rather than rejecting forever (its
		// conflicting entries are below our compaction horizon and can
		// never be repaired entry-by-entry).
		snapshot = true
	}
	n.cfg.Transport.Send(Message{
		Type:         MsgAppendRequest,
		From:         n.cfg.ID,
		To:           to,
		Term:         n.term,
		PrevLogIndex: prev,
		PrevLogTerm:  n.termAt(prev),
		Snapshot:     snapshot,
		Entries:      n.entriesFrom(next, maxEntriesPerAppend),
		LeaderCommit: n.commitIndex,
	})
}

func (n *Node) handle(msg Message) {
	if msg.Term > n.term {
		lead := None
		if msg.Type == MsgAppendRequest {
			lead = msg.From
		}
		n.becomeFollower(msg.Term, lead)
	}
	switch msg.Type {
	case MsgVoteRequest:
		n.handleVoteRequest(msg)
	case MsgVoteResponse:
		n.handleVoteResponse(msg)
	case MsgAppendRequest:
		n.handleAppendRequest(msg)
	case MsgAppendResponse:
		n.handleAppendResponse(msg)
	}
}

func (n *Node) handleVoteRequest(msg Message) {
	grant := false
	if msg.Term >= n.term && (n.vote == None || n.vote == msg.From) {
		// Election restriction: candidate's log must be at least as
		// up-to-date as ours.
		lastTerm := n.termAt(n.lastIndex())
		upToDate := msg.LastLogTerm > lastTerm ||
			(msg.LastLogTerm == lastTerm && msg.LastLogIndex >= n.lastIndex())
		if upToDate {
			grant = true
			n.vote = msg.From
			n.persistState()
			n.resetElectionTimer()
		}
	}
	n.cfg.Transport.Send(Message{
		Type:        MsgVoteResponse,
		From:        n.cfg.ID,
		To:          msg.From,
		Term:        n.term,
		VoteGranted: grant,
	})
}

func (n *Node) handleVoteResponse(msg Message) {
	if n.state != StateCandidate || msg.Term != n.term {
		return
	}
	n.votesWon[msg.From] = msg.VoteGranted
	if n.tallyVotes() {
		n.becomeLeader()
	}
}

func (n *Node) handleAppendRequest(msg Message) {
	if msg.Term < n.term {
		n.cfg.Transport.Send(Message{
			Type: MsgAppendResponse, From: n.cfg.ID, To: msg.From,
			Term: n.term, Success: false, RejectHint: n.lastIndex(),
		})
		return
	}
	n.becomeFollower(msg.Term, msg.From)
	n.elapsed = 0

	// A base-anchored append from the leader: if our log does not match
	// at the leader's compaction point, entry-level repair is
	// impossible (the leader no longer has those entries) — adopt the
	// point and take the entries that follow it.
	if msg.Snapshot && (msg.PrevLogIndex > n.lastIndex() || n.termAt(msg.PrevLogIndex) != msg.PrevLogTerm) {
		n.installBase(msg.PrevLogIndex, msg.PrevLogTerm)
	}

	// Log-matching check.
	if msg.PrevLogIndex > n.lastIndex() || n.termAt(msg.PrevLogIndex) != msg.PrevLogTerm {
		n.cfg.Transport.Send(Message{
			Type: MsgAppendResponse, From: n.cfg.ID, To: msg.From,
			Term: n.term, Success: false, RejectHint: n.lastIndex(),
		})
		return
	}
	// Append, resolving conflicts. The whole accepted run becomes one
	// storage append and one Sync before the Success response — the
	// follower half of group commit (a quorum ack must mean durable on
	// a quorum, whatever the group size).
	appended := false
	for i, e := range msg.Entries {
		if e.Index <= n.lastIndex() {
			if n.termAt(e.Index) == e.Term {
				continue // already have it
			}
			n.truncateFrom(e.Index)
		}
		n.appendEntries(msg.Entries[i:]...)
		appended = true
		break
	}
	if (appended || n.unsynced) && n.syncStorage() != nil {
		return // not durable here: no Success, so no quorum counts this node
	}
	match := msg.PrevLogIndex + uint64(len(msg.Entries))
	if msg.LeaderCommit > n.commitIndex {
		limit := msg.LeaderCommit
		if match < limit {
			limit = match
		}
		n.advanceCommit(limit)
	}
	n.cfg.Transport.Send(Message{
		Type: MsgAppendResponse, From: n.cfg.ID, To: msg.From,
		Term: n.term, Success: true, MatchIndex: match,
	})
}

func (n *Node) handleAppendResponse(msg Message) {
	if n.state != StateLeader || msg.Term != n.term {
		return
	}
	n.recentActive[msg.From] = true
	if msg.Success {
		if msg.MatchIndex > n.matchIndex[msg.From] {
			n.matchIndex[msg.From] = msg.MatchIndex
		}
		n.nextIndex[msg.From] = n.matchIndex[msg.From] + 1
		n.maybeCommit()
		// Keep pushing if the follower is behind.
		if n.nextIndex[msg.From] <= n.lastIndex() {
			n.sendAppend(msg.From)
		}
	} else {
		// Repair: back off nextIndex using the follower's hint.
		next := n.nextIndex[msg.From]
		if msg.RejectHint+1 < next {
			next = msg.RejectHint + 1
		} else if next > 1 {
			next--
		}
		if next < 1 {
			next = 1
		}
		n.nextIndex[msg.From] = next
		n.sendAppend(msg.From)
	}
}

func (n *Node) maybeCommit() {
	// Find the highest index replicated on a majority with an entry
	// from the current term (Raft's commit rule).
	for idx := n.lastIndex(); idx > n.commitIndex; idx-- {
		if n.termAt(idx) != n.term {
			break
		}
		count := 0
		for _, p := range n.cfg.Peers {
			if n.matchIndex[p] >= idx {
				count++
			}
		}
		if count*2 > len(n.cfg.Peers) {
			n.advanceCommit(idx)
			return
		}
	}
}

func (n *Node) advanceCommit(to uint64) {
	if to <= n.commitIndex {
		return
	}
	from := n.commitIndex + 1
	n.commitIndex = to
	if n.cfg.CommitHook != nil && from > n.base {
		n.cfg.CommitHook(n.log[from-n.base-1 : to-n.base])
	}
	for idx := from; idx <= to; idx++ {
		// Leadership no-ops are queued too (the apply loop skips the
		// SM call): the applied index must cover every committed index
		// or a flush barrier behind a fresh leader's no-op never meets
		// its target.
		n.stalledApply = append(n.stalledApply, n.log[idx-n.base-1])
	}
	n.flushStalledApply()
	// Publish the commit index before acking: a proposer that reads
	// Status after its ack must see its own entry committed.
	n.updateStatus()
	n.ackPending(to)
}

// flushStalledApply moves committed entries into the apply_queue,
// stopping (and retaining the remainder) when BFC trips.
func (n *Node) flushStalledApply() {
	for len(n.stalledApply) > 0 {
		e := n.stalledApply[0]
		if err := n.applyQ.Push(e, int64(len(e.Data))); err != nil {
			return // full: retry next tick; sync_queue drain is gated on this
		}
		n.stalledApply = n.stalledApply[1:]
	}
}

func (n *Node) ackPending(committed uint64) {
	i := 0
	for ; i < len(n.pending); i++ {
		if n.pending[i].index > committed {
			break
		}
		n.pending[i].done <- nil
	}
	n.pending = n.pending[i:]
}
