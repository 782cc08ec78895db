package raft

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"logstore/internal/backpressure"
)

// Errors surfaced to proposers.
var (
	// ErrStopped is returned when the node shuts down mid-proposal.
	ErrStopped = errors.New("raft: node stopped")
	// ErrBackpressure re-exports the BFC rejection for convenience.
	ErrBackpressure = backpressure.ErrBackpressure
)

// Config configures a node.
type Config struct {
	SM      StateMachine
	Storage Storage // nil = fresh MemoryStorage

	// BFC limits (paper §4.2): sync_queue bounds pending proposals,
	// apply_queue bounds committed-but-unapplied entries. Zero values
	// select defaults (4096 items / 64 MiB each).
	SyncQueueItems  int
	SyncQueueBytes  int64
	ApplyQueueItems int
	ApplyQueueBytes int64

	// CommitHook, when set, observes every entry this node commits, in
	// index order, before the proposer is acked. The WAL shipper hangs
	// off it: an ack therefore implies the shipper has been offered the
	// entry. Called from the log goroutine — must not block.
	CommitHook func([]Entry)

	// ID, Peers, Transport and Seed are accepted and ignored; they are
	// kept only for the benchmark ladder (ladder_compat.go).
	ID        NodeID
	Peers     []NodeID
	Transport Transport
	Seed      int64
}

type proposal struct {
	data []byte
	done chan error
}

// Node is a shard's log: proposals queue in the sync_queue, the log
// goroutine appends everything queued as one run and makes it durable
// with one Sync (group commit), and committed entries queue in the
// apply_queue for the apply goroutine, which hands them to the state
// machine in index order.
type Node struct {
	cfg Config

	syncQ  *backpressure.Queue // *proposal
	applyQ *backpressure.Queue // Entry
	// wake rouses the log goroutine: ProposeAsync sends on it, and so
	// does the apply goroutine after a pop while stalled is set.
	wake  chan struct{}
	stopc chan struct{}
	donec chan struct{}
	// applyWG tracks the apply goroutine.
	applyWG sync.WaitGroup

	// Log state (the log goroutine's alone once NewNode returns).
	term uint64 // this incarnation's term: the stored one, bumped at open
	last uint64 // the highest index appended
	// uncommitted holds appended entries whose Sync failed: the next
	// run that flushes commits them together with its own.
	uncommitted []Entry
	// stalledApply holds committed entries the full apply_queue has not
	// taken yet. While it is non-empty the sync_queue is not drained,
	// so it fills and rejects new proposals upstream (BFC).
	stalledApply []Entry
	// syncer is the Storage's optional durability hook (nil when the
	// Storage needs no explicit flush).
	syncer Syncer
	// drainBuf is the reusable scratch for draining the sync_queue.
	drainBuf []any

	// stalled is set while stalledApply is non-empty: the apply
	// goroutine then wakes the log goroutine after each pop.
	stalled atomic.Bool
	// committed is the highest committed index.
	committed atomic.Uint64
	// applied is the highest index the apply goroutine has finished
	// with. Commit acks fire before apply — WaitApplied lets callers
	// barrier on the gap.
	applied atomic.Uint64
	// appliedCh is WaitApplied's signal: a waiter installs a channel,
	// the next advance of applied swaps it out and closes it. With no
	// waiter it stays nil, so the apply loop never allocates for it.
	appliedCh atomic.Pointer[chan struct{}]
}

// NewNode opens the log on cfg.Storage and starts it. It takes the
// stored term, bumps it and persists it; the entries recovered above
// the storage's base commit with that flush and are applied before
// NewNode returns, so a read made at once sees them.
func NewNode(cfg Config) (*Node, error) {
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
	n := &Node{
		cfg:    cfg,
		syncQ:  backpressure.NewQueue("sync_queue", cfg.SyncQueueItems, cfg.SyncQueueBytes),
		applyQ: backpressure.NewQueue("apply_queue", cfg.ApplyQueueItems, cfg.ApplyQueueBytes),
		wake:   make(chan struct{}, 1),
		stopc:  make(chan struct{}),
		donec:  make(chan struct{}),
	}
	n.syncer, _ = cfg.Storage.(Syncer)
	base, _ := cfg.Storage.Base()
	n.last = base
	n.committed.Store(base)
	n.applied.Store(base)
	n.term = cfg.Storage.Term() + 1
	cfg.Storage.SetTerm(n.term)
	n.uncommitted = cfg.Storage.Entries()
	if len(n.uncommitted) > 0 {
		n.last = n.uncommitted[len(n.uncommitted)-1].Index
	}
	// One flush makes the new term durable and commits the recovered
	// tail; a failed one leaves the tail for the first run that flushes.
	if n.sync() == nil && len(n.uncommitted) > 0 {
		tail := n.commitUncommitted()
		for _, e := range tail {
			if len(e.Data) > 0 && cfg.SM != nil {
				cfg.SM.Apply(e.Index, e.Data)
			}
		}
		n.applied.Store(n.last)
	}

	n.applyWG.Add(1)
	go n.applyLoop()
	go n.run()
	return n, nil
}

// Stop shuts the node down and waits for its goroutines. Proposals
// still queued fail with ErrStopped; committed entries already in the
// apply_queue are applied first.
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

// Pending is a proposal the sync_queue has accepted: Wait reports what
// became of it.
type Pending struct {
	done  <-chan error
	stopc <-chan struct{}
}

// Wait blocks until the proposal commits (nil), its run fails to flush
// (the Sync error), or the node shuts down (ErrStopped). After an error
// the proposal may still commit: its entry stays in the log, and the
// next run that flushes commits it.
func (p Pending) Wait() error {
	select {
	case err := <-p.done:
		return err
	case <-p.stopc:
		return ErrStopped
	}
}

// ProposeAsync queues data for the log and returns without waiting for
// the commit. The BFC sync_queue rejects immediately with
// ErrBackpressure when full — that rejection is the paper's signal to
// the client to slow down. Everything queued when the log goroutine
// next drains is group-committed: one storage append, one Sync.
func (n *Node) ProposeAsync(data []byte) (Pending, error) {
	p := &proposal{data: data, done: make(chan error, 1)}
	if err := n.syncQ.Push(p, int64(len(data))); err != nil {
		return Pending{}, err
	}
	n.signal()
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

// Committed returns the highest committed index. A proposer acked for
// an entry sees it here.
func (n *Node) Committed() uint64 { return n.committed.Load() }

// QueueBytes returns the payload bytes waiting in the sync_queue and in
// the apply_queue.
func (n *Node) QueueBytes() (syncBytes, applyBytes int64) {
	return n.syncQ.Bytes(), n.applyQ.Bytes()
}

// SyncQueue reports the sync_queue's state.
func (n *Node) SyncQueue() backpressure.Snapshot { return n.syncQ.Snapshot() }

func (n *Node) signal() {
	select {
	case n.wake <- struct{}{}:
	default:
	}
}

// ---- log goroutine ----

func (n *Node) run() {
	defer close(n.donec)
	for {
		select {
		case <-n.stopc:
			n.failQueued(ErrStopped)
			return
		case <-n.wake:
		}
		n.flushStalledApply()
		n.drainProposals()
	}
}

// drainProposals group-commits the sync_queue: the entire backlog is
// taken in one atomic drain, appended to the log (and the WAL) as one
// consecutive run of entries and made durable with a single Sync. Each
// proposal stays its own entry — content-address dedup identity is per
// proposal — only the durability round-trip is amortized across the
// group. Every proposal is answered after its run commits or fails.
func (n *Node) drainProposals() {
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
	for i, v := range buf {
		entries[i] = Entry{Term: n.term, Index: n.last + 1 + uint64(i), Data: v.(*proposal).data}
	}
	n.last += uint64(len(entries))
	n.cfg.Storage.Append(entries)
	if len(n.uncommitted) == 0 {
		n.uncommitted = entries // no failed run ahead of this one: no copy
	} else {
		n.uncommitted = append(n.uncommitted, entries...)
	}
	// One fsync covers the whole run. A failed one fails the run's
	// proposals and commits nothing; the entries stay in the log.
	err := n.sync()
	if err == nil {
		n.stalledApply = append(n.stalledApply, n.commitUncommitted()...)
		n.flushStalledApply()
	}
	for i, v := range buf {
		v.(*proposal).done <- err
		buf[i] = nil
	}
	n.drainBuf = buf[:0]
}

// sync flushes the storage when it buffers (WAL-backed). Until it
// returns nil, nothing appended since the last successful flush may
// commit.
func (n *Node) sync() error {
	if n.syncer == nil {
		return nil
	}
	return n.syncer.Sync()
}

// commitUncommitted commits every appended entry after a successful
// flush: the commit hook sees them, then Committed does, and they are
// returned for applying.
func (n *Node) commitUncommitted() []Entry {
	run := n.uncommitted
	n.uncommitted = nil
	if n.cfg.CommitHook != nil {
		n.cfg.CommitHook(run)
	}
	n.committed.Store(run[len(run)-1].Index)
	return run
}

// flushStalledApply moves committed entries into the apply_queue until
// it is full. What stays behind is taken once the apply goroutine pops:
// with stalled set, it wakes this goroutine after each pop.
func (n *Node) flushStalledApply() {
	for len(n.stalledApply) > 0 {
		i := 0
		for ; i < len(n.stalledApply); i++ {
			e := n.stalledApply[i]
			if n.applyQ.Push(e, int64(len(e.Data))) != nil {
				break
			}
		}
		rest := copy(n.stalledApply, n.stalledApply[i:])
		clear(n.stalledApply[rest:])
		n.stalledApply = n.stalledApply[:rest]
		if rest == 0 {
			n.stalled.Store(false)
			return
		}
		if n.stalled.Swap(true) {
			return
		}
		// stalled was clear until now, so a pop since the failed push
		// woke nobody: try once more.
	}
}

// failQueued answers every proposal still in the sync_queue with err.
func (n *Node) failQueued(err error) {
	buf := n.syncQ.DrainAll(n.drainBuf[:0])
	for i, v := range buf {
		v.(*proposal).done <- err
		buf[i] = nil
	}
	n.drainBuf = buf[:0]
}

// ---- apply goroutine ----

func (n *Node) applyLoop() {
	defer n.applyWG.Done()
	for {
		v, ok := n.applyQ.Pop()
		if !ok {
			return
		}
		if n.stalled.Load() {
			n.signal() // the pop made room for a stalled entry
		}
		e := v.(Entry)
		if len(e.Data) > 0 && n.cfg.SM != nil {
			n.cfg.SM.Apply(e.Index, e.Data)
		}
		n.applied.Store(e.Index)
		if ch := n.appliedCh.Swap(nil); ch != nil {
			close(*ch)
		}
	}
}

// WaitApplied blocks until this node has finished applying index. A
// proposal ack only proves commit; the state machine sees the entry
// asynchronously, so callers that need read-your-writes wait for
// Committed here. It returns ctx's error if ctx ends first, and
// ErrStopped if the node stops first (entries still queued then may
// never apply).
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
