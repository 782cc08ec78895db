package raft

import (
	"sync"
	"time"
)

// This file is the package's clock seam — the single place raft touches
// the wall clock. The election and heartbeat machinery counts logical
// ticks; where those ticks come from is behind the Clock interface, so
// failover tests can drive a group with a ManualClock and observe
// deterministic elections instead of tuning sleeps.

// Clock supplies the node's one timing source: the run loop's tick
// stream.
type Clock interface {
	// NewTicker returns a stream firing roughly every d.
	NewTicker(d time.Duration) Ticker
}

// Ticker is a repeating tick source.
type Ticker interface {
	Chan() <-chan time.Time
	Stop()
}

// WallClock is the production Clock: a real time.Ticker.
type WallClock struct{}

// NewTicker implements Clock.
func (WallClock) NewTicker(d time.Duration) Ticker { return wallTicker{time.NewTicker(d)} }

type wallTicker struct{ t *time.Ticker }

func (w wallTicker) Chan() <-chan time.Time { return w.t.C }
func (w wallTicker) Stop()                  { w.t.Stop() }

// ManualClock is a deterministic Clock driven by Advance. Logical time
// only moves when the test says so, making election timing a function
// of the seeded randomized timeouts alone. Fire semantics match
// time.Ticker: each waiter has a 1-buffered channel, and ticks that
// find the buffer full are dropped (a slow consumer coalesces ticks —
// it never deadlocks the clock).
type ManualClock struct {
	mu      sync.Mutex
	step    time.Duration
	elapsed time.Duration
	tickers []*manualTicker
}

// NewManualClock returns a clock whose Advance moves logical time in
// units of step (the duration a production deployment would assign one
// tick; it only matters for converting requested durations to steps).
func NewManualClock(step time.Duration) *ManualClock {
	if step <= 0 {
		step = time.Millisecond
	}
	return &ManualClock{step: step}
}

type manualTicker struct {
	clock    *ManualClock
	c        chan time.Time
	deadline time.Duration // next logical fire time
	period   time.Duration
	stopped  bool
}

// NewTicker implements Clock.
func (c *ManualClock) NewTicker(d time.Duration) Ticker {
	if d <= 0 {
		d = c.step
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	t := &manualTicker{
		clock:    c,
		c:        make(chan time.Time, 1),
		deadline: c.elapsed + d,
		period:   d,
	}
	c.tickers = append(c.tickers, t)
	return t
}

// Advance moves logical time forward by n steps, firing every due
// ticker. It never blocks: delivery into a full waiter
// channel is dropped, like a real time.Ticker.
func (c *ManualClock) Advance(n int) {
	for i := 0; i < n; i++ {
		c.mu.Lock()
		c.elapsed += c.step
		var fire []chan time.Time
		live := c.tickers[:0]
		for _, t := range c.tickers {
			for !t.stopped && t.deadline <= c.elapsed {
				fire = append(fire, t.c)
				t.deadline += t.period
			}
			if !t.stopped {
				live = append(live, t)
			}
		}
		c.tickers = append([]*manualTicker(nil), live...)
		c.mu.Unlock()
		for _, ch := range fire {
			select {
			case ch <- time.Time{}:
			default:
			}
		}
	}
}

func (t *manualTicker) Chan() <-chan time.Time { return t.c }

func (t *manualTicker) Stop() {
	t.clock.mu.Lock()
	t.stopped = true
	t.clock.mu.Unlock()
}
