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
	shards := []flow.ShardID{0, 1, 2, 3, 4, 5}
	counts := map[Kind]int{Crash: 3, Wipe: 2, LeaderKill: 2, Partition: 2}
	a := Shuffled(2026, workers, shards, 3, counts)
	if len(a) != 9 {
		t.Fatalf("%d faults, want 9", len(a))
	}
	if b := Shuffled(2026, workers, shards, 3, counts); !reflect.DeepEqual(a, b) {
		t.Fatalf("seed 2026 gave two schedules:\n%v\n%v", a, b)
	}
	if c := Shuffled(4096, workers, shards, 3, counts); reflect.DeepEqual(a, c) {
		t.Fatalf("seeds 2026 and 4096 gave the same schedule %v", a)
	}
	for _, f := range a {
		if f.Kind == Partition && f.Replica == 0 {
			t.Fatalf("partition %+v cuts the serving replica off", f)
		}
	}
}
