package flow

import (
	"fmt"
	"hash/fnv"
	"testing"
	"time"
)

func TestHealthTrackerLifecycle(t *testing.T) {
	h := NewHealthTracker(3)

	// Never-seen workers are optimistically up.
	if got := h.State(7); got != WorkerUp {
		t.Fatalf("unseen worker state = %v", got)
	}

	h.Beat(1)
	h.Beat(2)
	if !h.Up(1) || !h.Up(2) {
		t.Fatal("beaten workers should be up")
	}

	// Two misses: still up. Third: dead.
	h.Tick()
	h.Tick()
	if got := h.State(1); got != WorkerUp {
		t.Fatalf("state after 2 misses = %v", got)
	}
	died := h.Tick()
	if got := h.State(1); got != WorkerDead {
		t.Fatalf("state after 3 misses = %v", got)
	}
	if len(died) != 2 {
		t.Fatalf("death transitions = %v", died)
	}
	// Transition reported once, not on every subsequent tick.
	if again := h.Tick(); len(again) != 0 {
		t.Fatalf("repeated death transitions = %v", again)
	}

	// A beat resurrects.
	h.Beat(1)
	if !h.Up(1) {
		t.Fatal("beat should resurrect a dead worker")
	}
	if got := h.State(2); got != WorkerDead {
		t.Fatal("worker 2 should stay dead")
	}

	snap := h.Snapshot()
	if snap[1] != WorkerUp || snap[2] != WorkerDead {
		t.Fatalf("snapshot = %v", snap)
	}
}

func TestHealthTrackerDraining(t *testing.T) {
	h := NewHealthTracker(2)
	h.Beat(1)
	h.SetDraining(1, true)
	if h.Up(1) {
		t.Fatal("draining worker reported up")
	}
	if got := h.State(1); got != WorkerDraining {
		t.Fatalf("state = %v", got)
	}
	// Draining is orthogonal to liveness: missed beats still kill it.
	h.Tick()
	h.Tick()
	if got := h.State(1); got != WorkerDead {
		t.Fatalf("draining worker after misses = %v", got)
	}
	// Beat brings it back to draining, not up.
	h.Beat(1)
	if got := h.State(1); got != WorkerDraining {
		t.Fatalf("resurrected draining worker = %v", got)
	}
	h.SetDraining(1, false)
	if !h.Up(1) {
		t.Fatal("undrained worker should be up")
	}

	// SetDraining on an unseen worker registers it for ticking.
	h.SetDraining(9, true)
	h.Tick()
	h.Tick()
	if got := h.State(9); got != WorkerDead {
		t.Fatalf("drained-then-silent worker = %v", got)
	}

	if WorkerUp.String() != "up" || WorkerDraining.String() != "draining" ||
		WorkerDead.String() != "dead" || WorkerState(99).String() != "unknown" {
		t.Error("WorkerState strings wrong")
	}
}

// TestReadPartition: dead workers serve nothing, slow ones only as the
// failover tail, and a filter that would leave nobody is not applied.
func TestReadPartition(t *testing.T) {
	all := []WorkerID{0, 1, 2, 3}
	eq := func(a, b []WorkerID) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	var none *HealthTracker
	if s, p := none.ReadPartition(all); !eq(s, all) || !eq(p, all) {
		t.Fatalf("nil tracker: serving %v primary %v", s, p)
	}

	h := NewHealthTracker(1)
	h.SetSlowThreshold(time.Millisecond)
	h.Beat(1)
	h.Tick() // worker 1 dead
	h.ReportLatency(2, time.Second)
	h.SetDraining(3, true)
	s, p := h.ReadPartition(all)
	if !eq(s, []WorkerID{0, 2, 3}) || !eq(p, []WorkerID{0, 3}) {
		t.Fatalf("serving %v primary %v, want [0 2 3] and [0 3]", s, p)
	}

	// Every live worker slow: the slow ones are the partition.
	h.SetDraining(3, false)
	h.ReportLatency(0, time.Second)
	h.ReportLatency(3, time.Second)
	if s, p = h.ReadPartition(all); !eq(s, []WorkerID{0, 2, 3}) || !eq(p, s) {
		t.Fatalf("all slow: serving %v primary %v", s, p)
	}
	// Every worker dead: stale health degrades to routing as if all lived.
	for _, w := range all {
		h.Beat(w)
	}
	h.Tick()
	if s, p = h.ReadPartition(all); !eq(s, all) || !eq(p, all) {
		t.Fatalf("all dead: serving %v primary %v", s, p)
	}
}

// TestReadHomeIsFNV1a pins the read-home rule to the hash the brokers
// have always partitioned block paths by: changing it would move every
// block's home and strand the caches.
func TestReadHomeIsFNV1a(t *testing.T) {
	primary := []WorkerID{4, 7, 9}
	for i := 0; i < 200; i++ {
		path := fmt.Sprintf("request_log/tenant-%d/logblock-%016d-%016x.tar", i%7, i*1000, uint64(i)*0x9e3779b97f4a7c15)
		h := fnv.New32a()
		h.Write([]byte(path))
		if got, want := ReadHome(primary, path), primary[int(h.Sum32())%len(primary)]; got != want {
			t.Fatalf("ReadHome(%q) = %d, want %d", path, got, want)
		}
	}
	if got := ReadHome(primary[:1], ""); got != 4 {
		t.Fatalf("single-worker partition: home %d", got)
	}
}
