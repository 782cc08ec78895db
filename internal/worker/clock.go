package worker

import "time"

// This file is the package's clock seam — the single place the worker
// touches the wall clock. The append path's leader-retry loop and the
// archive ticker route through these indirections, so tests can pin
// time and the wallclock analyzer can enforce that no other file in the
// package reads the clock.

var (
	// timeNow / timeSleep back the propose retry deadline and pacing.
	timeNow   = time.Now
	timeSleep = time.Sleep
)

// newWallTicker backs the archive cadence.
func newWallTicker(d time.Duration) *time.Ticker { return time.NewTicker(d) }
