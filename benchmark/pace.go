package main

import "time"

// clock is the pacer's time source; the unit tests substitute a fake
// to stall the sender deterministically.
type clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// sample is one completed client operation.
type sample struct {
	// end is when the reply arrived; a sample belongs to the measured
	// interval (and to one of its windows) by this instant.
	end time.Time
	// latency runs from when the operation was issued — for a paced
	// sender from when it was due, so a stall is charged to every
	// operation it delayed.
	latency time.Duration
	// late is how long after its due time a paced operation was sent
	// (zero for closed-loop clients).
	late time.Duration
	ok   bool
}

// pacer issues operations on a fixed schedule from one goroutine: op i
// is due at start + i*interval and is sent as soon as both its due time
// has come and op i-1 has returned. It is open-loop in what it reports,
// not in concurrency — a slow reply delays the next send, and that
// delay shows up as lateness and in the latency of the delayed op.
type pacer struct {
	clk      clock
	start    time.Time
	interval time.Duration
}

// run calls prepare(i) then, at its due time, op(i), for i = 0, 1, ...
// until stop() reports true at a due time, handing each outcome to
// record. prepare (nil = nothing to prepare) builds the operation's
// input in the slack before the due time, so input generation is not
// part of any latency.
func (p *pacer) run(stop func() bool, prepare func(i int), op func(i int) error, record func(sample)) {
	for i := 0; ; i++ {
		if prepare != nil {
			prepare(i)
		}
		due := p.start.Add(time.Duration(i) * p.interval)
		if wait := due.Sub(p.clk.Now()); wait > 0 {
			p.clk.Sleep(wait)
		}
		if stop() {
			return
		}
		sent := p.clk.Now()
		err := op(i)
		end := p.clk.Now()
		record(sample{end: end, latency: end.Sub(due), late: sent.Sub(due), ok: err == nil})
	}
}
