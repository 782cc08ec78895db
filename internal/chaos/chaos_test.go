package chaos

import (
	"reflect"
	"testing"

	"logstore/internal/flow"
)

// TestShuffledReplaysFromSeed: a fault schedule is a function of its
// seed and counts alone, so a failing seed replays the same faults in
// the same order, and another seed explores another order.
func TestShuffledReplaysFromSeed(t *testing.T) {
	workers := []flow.WorkerID{0, 1, 2}
	counts := map[Kind]int{Crash: 3, Wipe: 2}
	a := Shuffled(2026, workers, counts)
	if len(a) != 5 {
		t.Fatalf("%d faults, want 5", len(a))
	}
	if b := Shuffled(2026, workers, counts); !reflect.DeepEqual(a, b) {
		t.Fatalf("seed 2026 gave two schedules:\n%v\n%v", a, b)
	}
	if c := Shuffled(4096, workers, counts); reflect.DeepEqual(a, c) {
		t.Fatalf("seeds 2026 and 4096 gave the same schedule %v", a)
	}
}
