package flow

import (
	"slices"
	"sync"
	"time"
)

// This file tracks worker liveness for the query/write routers. The
// tracker is deliberately tick-driven: workers heartbeat through Beat,
// and some outside loop (the cluster harness) calls Tick on its own
// cadence. The tracker itself never reads a clock, so failover tests
// drive it deterministically — miss thresholds are counted in ticks,
// not wall time. Slowness works the same way: brokers report observed
// sub-query latencies through ReportLatency (durations, not clock
// reads), and the tracker derives a WorkerSlow state from the EWMA —
// gray failures (a stalled disk, a throttled OSS path) surface in
// routing and admission without any component here consulting time.

// WorkerState is a worker's health as seen by the routing layer.
type WorkerState int

const (
	// WorkerUp is serving normally.
	WorkerUp WorkerState = iota
	// WorkerDraining is alive but being decommissioned: it still
	// answers queries for data it holds, but new writes avoid it.
	WorkerDraining
	// WorkerDead has missed enough heartbeats to be presumed crashed;
	// brokers fail its sub-queries over to other workers.
	WorkerDead
	// WorkerSlow is alive and heartbeating but serving degraded — its
	// observed latency EWMA crossed the slow threshold. Brokers depri-
	// oritize it for new sub-queries (it stays a failover candidate)
	// and admission control sheds a share of ingest while any worker
	// is slow. Appended after WorkerDead so persisted state values
	// stay stable.
	WorkerSlow
)

// String implements fmt.Stringer.
func (s WorkerState) String() string {
	switch s {
	case WorkerUp:
		return "up"
	case WorkerDraining:
		return "draining"
	case WorkerDead:
		return "dead"
	case WorkerSlow:
		return "slow"
	}
	return "unknown"
}

// HealthTracker counts missed heartbeats per worker and derives an
// up/draining/dead state. Safe for concurrent use.
type HealthTracker struct {
	mu        sync.Mutex
	downAfter int
	misses    map[WorkerID]int
	draining  map[WorkerID]bool
	dead      map[WorkerID]bool

	// Slow-worker detection: a per-worker latency EWMA fed by broker
	// observations. A worker turns slow when its EWMA exceeds slowOver
	// and recovers when it falls back under half of it (hysteresis, so
	// one borderline sample doesn't flap routing).
	slowOver time.Duration
	ewma     map[WorkerID]time.Duration
	slow     map[WorkerID]bool
}

// ewmaAlpha weights the newest latency sample; ~8 samples dominate
// the average, so a stall shows within a few sub-queries and recovery
// within a few more.
const ewmaAlpha = 0.25

// NewHealthTracker returns a tracker that declares a worker dead after
// it misses downAfterMisses consecutive ticks (minimum 1; 0 selects 3).
func NewHealthTracker(downAfterMisses int) *HealthTracker {
	if downAfterMisses <= 0 {
		downAfterMisses = 3
	}
	return &HealthTracker{
		downAfter: downAfterMisses,
		misses:    make(map[WorkerID]int),
		draining:  make(map[WorkerID]bool),
		dead:      make(map[WorkerID]bool),
		ewma:      make(map[WorkerID]time.Duration),
		slow:      make(map[WorkerID]bool),
	}
}

// SetSlowThreshold arms slow-worker detection: a worker whose latency
// EWMA exceeds over becomes WorkerSlow. Zero disables the mode (the
// default — clusters opt in with a threshold scaled to their expected
// sub-query time).
func (h *HealthTracker) SetSlowThreshold(over time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.slowOver = over
	if over <= 0 {
		for w := range h.slow {
			delete(h.slow, w)
		}
	}
}

// ReportLatency feeds one observed sub-query (or append) latency for a
// worker into its EWMA and re-derives its slow flag. Brokers call this
// on every completed attempt and on every hedge trigger — the hedge
// delay expiring IS a latency observation about the preferred worker.
func (h *HealthTracker) ReportLatency(w WorkerID, d time.Duration) {
	if d < 0 {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	prev, seen := h.ewma[w]
	if !seen {
		h.ewma[w] = d
	} else {
		h.ewma[w] = prev + time.Duration(ewmaAlpha*float64(d-prev))
	}
	if h.slowOver <= 0 {
		return
	}
	switch cur := h.ewma[w]; {
	case cur > h.slowOver:
		h.slow[w] = true
	case cur < h.slowOver/2:
		delete(h.slow, w)
	}
}

// LatencyEWMA returns the worker's current latency estimate (0 when
// never observed).
func (h *HealthTracker) LatencyEWMA(w WorkerID) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.ewma[w]
}

// SlowFraction reports what fraction of live (non-dead) tracked
// workers are currently slow, in [0, 1]. Admission control scales
// effective ingest rates by it: a cluster whose workers are degraded
// sheds at the door what it could only have queued.
func (h *HealthTracker) SlowFraction() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	live, slow := 0, 0
	for w := range h.misses {
		if h.dead[w] {
			continue
		}
		live++
		if h.slow[w] {
			slow++
		}
	}
	if live == 0 {
		return 0
	}
	return float64(slow) / float64(live)
}

// Beat records a heartbeat: the worker is (back) up unless draining. A
// beat from a dead worker resurrects it — recovery needs no separate
// call.
func (h *HealthTracker) Beat(w WorkerID) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.misses[w] = 0
	delete(h.dead, w)
}

// SetDraining marks (or unmarks) a worker as draining. Draining is
// orthogonal to liveness: a draining worker that stops beating still
// becomes dead.
func (h *HealthTracker) SetDraining(w WorkerID, draining bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if draining {
		h.draining[w] = true
		if _, ok := h.misses[w]; !ok {
			h.misses[w] = 0
		}
	} else {
		delete(h.draining, w)
	}
}

// Tick advances the miss counter of every tracked worker; workers at or
// past the threshold become dead. Returns the workers that died on this
// tick (transitions only, for logging/metrics).
func (h *HealthTracker) Tick() []WorkerID {
	h.mu.Lock()
	defer h.mu.Unlock()
	var died []WorkerID
	for w := range h.misses {
		h.misses[w]++
		if h.misses[w] >= h.downAfter && !h.dead[w] {
			h.dead[w] = true
			died = append(died, w)
		}
	}
	return died
}

// State returns the worker's current health. Workers never seen are
// reported up: routing stays optimistic until the first missed beats,
// so bootstrap does not depend on heartbeat ordering.
func (h *HealthTracker) State(w WorkerID) WorkerState {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.stateLocked(w)
}

func (h *HealthTracker) stateLocked(w WorkerID) WorkerState {
	if h.dead[w] {
		return WorkerDead
	}
	if h.draining[w] {
		return WorkerDraining
	}
	if h.slow[w] {
		return WorkerSlow
	}
	return WorkerUp
}

// Up reports whether the worker accepts new work (up, not draining).
func (h *HealthTracker) Up(w WorkerID) bool { return h.State(w) == WorkerUp }

// Snapshot returns the state of every tracked worker.
func (h *HealthTracker) Snapshot() map[WorkerID]WorkerState {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[WorkerID]WorkerState, len(h.misses))
	for w := range h.misses {
		out[w] = h.stateLocked(w)
	}
	for w := range h.dead {
		out[w] = WorkerDead
	}
	return out
}

// ReadPartition splits the workers for archived reads under the current
// health view. Serving drops the workers believed dead: draining ones
// still answer for the cached blocks they hold, only new writes avoid
// them. Primary further drops the slow-flagged ones (gray failure:
// alive but lagging), which stay in serving as the failover tail. A
// filter that would leave nothing returns its input instead: stale
// health must degrade to optimistic routing, never to unavailability,
// and universally degraded beats unavailable. A nil tracker treats every
// worker as healthy. When no worker is dead or slow, both partitions
// are all itself, and nothing is allocated.
func (h *HealthTracker) ReadPartition(all []WorkerID) (serving, primary []WorkerID) {
	if h == nil {
		return all, all
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if !slices.ContainsFunc(all, func(w WorkerID) bool {
		s := h.stateLocked(w)
		return s == WorkerDead || s == WorkerSlow
	}) {
		return all, all
	}
	serving = make([]WorkerID, 0, len(all))
	primary = make([]WorkerID, 0, len(all))
	for _, w := range all {
		switch h.stateLocked(w) {
		case WorkerDead:
		case WorkerSlow:
			serving = append(serving, w)
		default:
			serving = append(serving, w)
			primary = append(primary, w)
		}
	}
	if len(serving) == 0 {
		serving = all
	}
	if len(primary) == 0 {
		primary = serving
	}
	return serving, primary
}

// ReadHome returns the worker of a non-empty primary partition that a
// LogBlock's sub-queries are sent to first: the FNV-1a hash of its
// object key picks the slot, so the choice is stable while the partition
// is and repeated reads of a block meet one worker's caches. The broker
// routes by it and the archive commit hands a new block's bytes to the
// same worker, which is why the rule lives in one place.
func ReadHome(primary []WorkerID, path string) WorkerID {
	h := uint32(2166136261)
	for i := 0; i < len(path); i++ {
		h = (h ^ uint32(path[i])) * 16777619
	}
	return primary[h%uint32(len(primary))]
}
