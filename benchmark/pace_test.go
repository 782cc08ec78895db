package main

import (
	"testing"
	"time"
)

// fakeClock advances only when slept on.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

// A paced sender that stalls must charge the stall to every operation
// it delayed: latency runs from the due time, not from the send.
func TestPacerTimesFromDueTimeUnderStall(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	p := pacer{clk: clk, start: clk.now, interval: 10 * time.Millisecond}
	const service = time.Millisecond
	var got []sample
	p.run(
		func() bool { return len(got) == 6 },
		nil,
		func(i int) error {
			d := service
			if i == 2 {
				d = 35 * time.Millisecond // the stall
			}
			clk.Sleep(d)
			return nil
		},
		func(s sample) { got = append(got, s) })

	ms := time.Millisecond
	want := []struct{ late, latency time.Duration }{
		{0, 1 * ms},        // due 0, sent 0
		{0, 1 * ms},        // due 10, sent 10
		{0, 35 * ms},       // due 20, sent 20, back at 55
		{25 * ms, 26 * ms}, // due 30, sent 55: waited out the stall
		{16 * ms, 17 * ms}, // due 40, sent 56
		{7 * ms, 8 * ms},   // due 50, sent 57
	}
	if len(got) != len(want) {
		t.Fatalf("recorded %d samples, want %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i].late != w.late || got[i].latency != w.latency || !got[i].ok {
			t.Errorf("op %d: late %v latency %v ok %v, want late %v latency %v",
				i, got[i].late, got[i].latency, got[i].ok, w.late, w.latency)
		}
	}
	// The schedule is not pushed back by the stall: op 5 was due at 50 ms.
	if end := got[5].end.Sub(p.start); end != 58*ms {
		t.Errorf("op 5 ended at %v, want 58ms", end)
	}
}
