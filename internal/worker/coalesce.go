package worker

import (
	"sync"
	"sync/atomic"
	"time"
)

// coalescer merges concurrent appends to one shard into fewer, larger
// raft proposals — the ingest half of group commit (the raft node
// amortizes the WAL fsync and replication fan-out; this amortizes the
// proposal count itself). It batches *naturally*: the flusher proposes
// whatever is queued the moment it is free, so an append in a quiet
// period ships alone with no added latency, and appends that arrive
// while a propose is in flight accumulate into the next group. A
// configurable linger can trade latency for larger groups; size caps
// bound how much one proposal carries.
//
// The queue holds units: the subs one append call handed over together
// (the broker's tenant sub-batches of one client batch for this shard).
// A unit is never split across proposals, so its caller waits on
// exactly one raft outcome.
type coalescer struct {
	w  *Worker
	sh *Shard

	maxSubs  int
	maxBytes int64
	linger   time.Duration

	mu      sync.Mutex
	cond    *sync.Cond
	pending []pendingUnit
	closed  bool
	done    chan struct{}

	// take / chunks are flusher-private scratch (single goroutine), reused
	// across groups so a flush allocates only the group frame raft keeps.
	take   []pendingUnit
	chunks [][]byte

	// groups / batches feed CoalesceStats: batches counts subs, so
	// batches/groups is the coalescing factor sustained-load runs report.
	groups  atomic.Int64
	batches atomic.Int64
}

// pendingUnit is one queued append: its nsubs framed sub-proposals
// (appendFramedSub output, back to back) plus the channel its caller
// waits on for the group's raft outcome.
type pendingUnit struct {
	framed []byte
	nsubs  int
	done   chan error
}

func newCoalescer(w *Worker, sh *Shard) *coalescer {
	c := &coalescer{
		w:        w,
		sh:       sh,
		maxSubs:  w.cfg.CoalesceMaxBatches,
		maxBytes: w.cfg.CoalesceMaxBytes,
		linger:   w.cfg.CoalesceLinger,
		done:     make(chan struct{}),
	}
	c.cond = sync.NewCond(&c.mu)
	go c.run()
	return c
}

// enqueue queues one unit without waiting for it. On nil the group's
// raft outcome — errors verbatim, so the broker's backpressure handling
// is unchanged — arrives on u.done, and the caller owns u.framed and
// u.done again once it has received it. On error nothing was queued.
func (c *coalescer) enqueue(u pendingUnit) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrWorkerDown
	}
	c.pending = append(c.pending, u)
	c.mu.Unlock()
	c.cond.Signal()
	return nil
}

// close drains the queue and stops the flusher. Queued appends are
// still flushed — their proposes fail fast once the worker is down —
// and appends arriving after close are bounced without queueing, so no
// caller is left blocked.
func (c *coalescer) close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()
	c.cond.Signal()
	<-c.done
}

func (c *coalescer) run() {
	defer close(c.done)
	for {
		c.mu.Lock()
		for len(c.pending) == 0 && !c.closed {
			c.cond.Wait()
		}
		if len(c.pending) == 0 {
			c.mu.Unlock()
			return // closed and drained
		}
		c.mu.Unlock()
		if c.linger > 0 {
			timeSleep(c.linger)
		}
		group := c.takeGroup()
		data, nsubs := c.encodeGroup(group)
		err := c.w.proposeGroup(c.sh, data)
		c.groups.Add(1)
		c.batches.Add(int64(nsubs))
		for i := range group {
			group[i].done <- err
			group[i] = pendingUnit{}
		}
	}
}

// takeGroup pops the next group off the queue: the first unit always,
// then whole units while the group stays within maxSubs subs and
// maxBytes of encoded payload. A unit over either cap therefore ships
// whole and alone; what doesn't fit stays queued for the next flush.
func (c *coalescer) takeGroup() []pendingUnit {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, subs, sz := 0, 0, int64(0)
	for n < len(c.pending) {
		u := c.pending[n]
		if n > 0 && (c.maxSubs > 0 && subs+u.nsubs > c.maxSubs ||
			c.maxBytes > 0 && sz+int64(len(u.framed)) > c.maxBytes) {
			break
		}
		subs += u.nsubs
		sz += int64(len(u.framed))
		n++
	}
	group := append(c.take[:0], c.pending[:n]...)
	c.take = group
	rest := copy(c.pending, c.pending[n:])
	for i := rest; i < len(c.pending); i++ {
		c.pending[i] = pendingUnit{} // release sub buffers back to callers
	}
	c.pending = c.pending[:rest]
	return group
}

// encodeGroup frames the group's units into one proposal buffer and
// returns it with the number of subs it carries. Only that buffer is
// freshly allocated (raft retains it); the chunk slice is
// flusher-private scratch.
func (c *coalescer) encodeGroup(group []pendingUnit) ([]byte, int) {
	chunks, nsubs := c.chunks[:0], 0
	for _, u := range group {
		chunks = append(chunks, u.framed)
		nsubs += u.nsubs
	}
	out := encodeFramedGroup(nsubs, chunks...)
	clear(chunks)
	c.chunks = chunks[:0]
	return out, nsubs
}

// stats returns proposals issued and client batches carried since start.
func (c *coalescer) stats() (groups, batches int64) {
	return c.groups.Load(), c.batches.Load()
}

// doneChanPool recycles the per-append ack channels; each is used for
// exactly one send/receive pair before returning to the pool.
var doneChanPool = sync.Pool{New: func() any {
	return make(chan error, 1)
}}
